"""Run order through the service, and the job lifecycle objects.

:class:`~repro.service.CleaningService` keeps queued jobs in a priority heap
that its thread pool drains: lower priority numbers run first, FIFO within
a priority, and a job cancelled while queued never runs.  Each test parks
one worker on a gated model so the jobs behind it queue up, then opens the
gate and reads the order back from ``started_at``.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.dataframe import Table
from repro.llm import SimulatedSemanticLLM
from repro.obs.metrics import MetricsRegistry
from repro.service import CleaningJob, CleaningService, JobStatus


def _job(name: str, priority: int = 0) -> CleaningJob:
    table = Table.from_dict(name, {"a": ["1", "2"]})
    return CleaningJob(table=table, priority=priority, name=name)


def _table(name: str) -> Table:
    return Table.from_dict(
        name, {"lang": ["eng"] * 6 + ["English"] * 2, "note": ["ok"] * 6 + ["N/A"] * 2}
    )


class _GatedLLM(SimulatedSemanticLLM):
    """A simulated model that blocks until the test opens the gate."""

    def __init__(self, gate: threading.Event, entered: threading.Event):
        super().__init__()
        self._gate = gate
        self._entered = entered

    def _complete(self, prompt, system=None):
        self._entered.set()
        assert self._gate.wait(timeout=30), "test gate was never opened"
        return super()._complete(prompt, system=system)


@pytest.fixture
def gated():
    """A one-worker service whose first job holds the worker until ``gate`` opens."""
    gate, entered = threading.Event(), threading.Event()
    service = CleaningService(workers=1, llm_factory=lambda: _GatedLLM(gate, entered))
    service.submit(_table("blocker"))
    assert entered.wait(timeout=30), "the blocker never reached the model"
    try:
        yield service, gate
    finally:
        gate.set()
        service.shutdown()


def _run_order(jobs):
    for job in jobs:
        assert job.wait(timeout=60) is not None
    ran = [job for job in jobs if job.started_at is not None]
    return [job.name for job in sorted(ran, key=lambda job: job.started_at)]


class TestRunOrder:
    def test_fifo_within_priority(self, gated):
        service, gate = gated
        jobs = [service.submit(_table(f"j{i}"), priority=3) for i in range(5)]
        gate.set()
        assert _run_order(jobs) == [f"j{i}" for i in range(5)]

    def test_lower_priority_number_runs_first(self, gated):
        service, gate = gated
        jobs = [
            service.submit(_table(name), priority=priority)
            for name, priority in (("low-urgency", 10), ("high-urgency", 1), ("mid-urgency", 5))
        ]
        gate.set()
        assert _run_order(jobs) == ["high-urgency", "mid-urgency", "low-urgency"]

    def test_cancelled_job_is_skipped(self, gated):
        service, gate = gated
        first, second = service.submit(_table("first")), service.submit(_table("second"))
        assert service.queue_depth == 2
        assert service.cancel(first)
        assert service.queue_depth == 1
        gate.set()
        assert _run_order([first, second]) == ["second"]
        assert first.status is JobStatus.CANCELLED
        assert second.status is JobStatus.SUCCEEDED
        assert service.queue_depth == 0

    def test_shutdown_drains_queued_jobs(self, gated):
        service, gate = gated
        jobs = [service.submit(_table(f"q{i}")) for i in range(2)]
        gate.set()
        service.shutdown(wait=True)
        assert [job.status for job in jobs] == [JobStatus.SUCCEEDED] * 2

    def test_submit_after_shutdown_raises_while_jobs_drain(self, gated):
        service, gate = gated
        queued = service.submit(_table("queued"))
        service.shutdown(wait=False)
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(_table("late"))
        gate.set()
        assert queued.wait(timeout=60).status is JobStatus.SUCCEEDED

    def test_exception_in_the_block_cancels_queued_jobs(self):
        gate, entered = threading.Event(), threading.Event()
        service = CleaningService(workers=1, llm_factory=lambda: _GatedLLM(gate, entered))
        try:
            with pytest.raises(KeyboardInterrupt), service:
                blocker = service.submit(_table("blocker"))
                queued = [service.submit(_table(f"q{i}")) for i in range(2)]
                assert entered.wait(timeout=30), "the blocker never reached the model"
                raise KeyboardInterrupt
            # Settled before the running job lets go of the worker.
            assert [job.status for job in queued] == [JobStatus.CANCELLED] * 2
            assert service.queue_depth == 0
        finally:
            gate.set()
        assert blocker.wait(timeout=60).status is JobStatus.SUCCEEDED
        assert [job.started_at for job in queued] == [None, None]

    @pytest.mark.parametrize("path", ["job.cancel", "service.cancel", "exception"])
    def test_each_cancellation_is_counted_once(self, path):
        registry = MetricsRegistry()
        gate, entered = threading.Event(), threading.Event()
        service = CleaningService(
            workers=1, llm_factory=lambda: _GatedLLM(gate, entered), metrics_registry=registry
        )
        finished = registry.get("repro_service_jobs_total")
        try:
            with pytest.raises(KeyboardInterrupt) if path == "exception" else contextlib.nullcontext(), service:
                blocker = service.submit(_table("blocker"))
                queued = service.submit(_table("queued"))
                assert entered.wait(timeout=30), "the blocker never reached the model"
                if path == "job.cancel":
                    assert queued.cancel()
                elif path == "service.cancel":
                    assert service.cancel(queued)
                else:
                    raise KeyboardInterrupt
                gate.set()
        finally:
            gate.set()
        assert blocker.wait(timeout=60).status is JobStatus.SUCCEEDED
        assert queued.status is JobStatus.CANCELLED
        # A second cancel, by either path, is refused and counts nothing.
        assert not queued.cancel() and not service.cancel(queued)
        assert finished.value(status="cancelled") == 1
        assert finished.value(status="succeeded") == 1

    def test_shutdown_of_an_idle_service_returns(self):
        service = CleaningService(workers=2)
        service.submit(_table("only")).wait(timeout=60)
        closer = threading.Thread(target=service.shutdown)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()


class TestCleaningJob:
    def test_cancel_only_before_running(self):
        job = _job("x")
        assert job.mark_running()
        assert not job.cancel()
        assert job.status is JobStatus.RUNNING

    def test_cancel_settles_job_with_result(self):
        job = _job("x")
        assert job.cancel()
        assert job.done
        assert job.status is JobStatus.CANCELLED
        result = job.wait(timeout=1)
        assert result is not None and result.status is JobStatus.CANCELLED
        assert not result.ok

    def test_mark_running_fails_after_cancel(self):
        job = _job("x")
        job.cancel()
        assert not job.mark_running()

    def test_job_ids_are_unique(self):
        ids = {(_job("a")).job_id for _ in range(10)}
        assert len(ids) == 10

    def test_terminal_statuses(self):
        assert JobStatus.SUCCEEDED.terminal
        assert JobStatus.FAILED.terminal
        assert JobStatus.CANCELLED.terminal
        assert not JobStatus.PENDING.terminal
        assert not JobStatus.RUNNING.terminal
