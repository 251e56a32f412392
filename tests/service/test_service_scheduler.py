"""Integration tests for the concurrent cleaning service.

The load-bearing guarantee: running jobs concurrently (shared prompt cache,
isolated per-job state) must not change cleaning outcomes — every cleaned
table is cell-identical to a sequential ``CocoonCleaner.clean`` of the same
table.
"""

from __future__ import annotations

import threading

import pytest

from repro import CleaningService, CocoonCleaner, JobStatus, dataset_names, load_dataset
from repro.dataframe import Table
from repro.llm import SimulatedSemanticLLM
from repro.obs.metrics import MetricsRegistry
from repro.service import render_service_summary

SCALE = 0.05
SEED = 0


@pytest.fixture(scope="module")
def registry_tables():
    return [load_dataset(name, seed=SEED, scale=SCALE).dirty for name in dataset_names()]


@pytest.fixture(scope="module")
def sequential_results(registry_tables):
    # A fresh cleaner per table mirrors what the service gives each job.
    return [CocoonCleaner().clean(table) for table in registry_tables]


class TestConcurrentEqualsSequential:
    def test_all_registry_datasets_cell_identical(self, registry_tables, sequential_results):
        with CleaningService(workers=4) as service:
            jobs = [service.submit(table) for table in registry_tables]
            results = [job.wait(timeout=300) for job in jobs]
        assert all(r.status is JobStatus.SUCCEEDED for r in results)
        for table, sequential, concurrent in zip(registry_tables, sequential_results, results):
            assert concurrent.cleaning_result is not None
            assert concurrent.cleaning_result.cleaned_table == sequential.cleaned_table, (
                f"concurrent cleaning of {table.name} diverged from sequential"
            )

    def test_two_workers_also_match(self, registry_tables, sequential_results):
        with CleaningService(workers=2) as service:
            jobs = [service.submit(table) for table in registry_tables]
            results = [job.wait() for job in jobs]
        for sequential, concurrent in zip(sequential_results, results):
            assert concurrent.cleaning_result.cleaned_table == sequential.cleaned_table

    def test_stats_accounting(self, registry_tables):
        registry = MetricsRegistry()
        with CleaningService(workers=4, metrics_registry=registry) as service:
            jobs = [service.submit(table) for table in registry_tables]
            results = [job.wait() for job in jobs]
            cache_stats = service.cache.stats()
        count = registry.get("repro_service_jobs_total").value
        assert registry.get("repro_service_jobs_submitted_total").total() == len(registry_tables)
        assert count(status="succeeded") == len(registry_tables)
        assert count(status="failed") == 0
        rows = registry.get("repro_service_rows_cleaned_total").total()
        assert rows == sum(t.num_rows for t in registry_tables)
        llm_calls = registry.get("repro_service_llm_calls_total").total()
        assert llm_calls == sum(r.llm_calls for r in results) > 0
        assert registry.get("repro_service_cells_repaired_total").total() == sum(
            r.cell_repairs for r in results
        )
        run_seconds = registry.get("repro_service_job_run_seconds")
        assert run_seconds.count() == len(registry_tables)
        assert run_seconds.sum() == pytest.approx(sum(r.run_seconds for r in results))
        wait_seconds = registry.get("repro_service_job_wait_seconds")
        assert wait_seconds.sum() == pytest.approx(sum(r.wait_seconds for r in results))
        # The shared store saw every prompt the jobs issued.
        assert cache_stats["hits"] + cache_stats["misses"] >= llm_calls
        summary = render_service_summary(jobs, cache_stats)
        assert f"{len(jobs)} submitted, {len(jobs)} succeeded" in summary
        assert "jobs/s" in summary and "hit rate" in summary


class _GatedLLM(SimulatedSemanticLLM):
    """A simulated model that blocks until the test opens the gate."""

    def __init__(self, gate: threading.Event):
        super().__init__()
        self._gate = gate

    def _complete(self, prompt, system=None):
        assert self._gate.wait(timeout=30), "test gate was never opened"
        return super()._complete(prompt, system=system)


class TestCancellation:
    def test_cancel_queued_jobs_while_worker_busy(self, dirty_language_table):
        gate = threading.Event()
        registry = MetricsRegistry()
        service = CleaningService(
            workers=1, llm_factory=lambda: _GatedLLM(gate), metrics_registry=registry
        )
        try:
            running = service.submit(dirty_language_table, name="running-job")
            queued = [
                service.submit(dirty_language_table.copy(f"queued-{i}"), name=f"queued-{i}")
                for i in range(3)
            ]
            assert service.cancel(queued[0])
            assert service.cancel(queued[2])
            gate.set()
            results = [job.wait(timeout=60) for job in [running, *queued]]
        finally:
            gate.set()
            service.shutdown()
        statuses = {r.table_name: r.status for r in results}
        assert statuses["running-job"] is JobStatus.SUCCEEDED
        assert statuses["queued-0"] is JobStatus.CANCELLED
        assert statuses["queued-1"] is JobStatus.SUCCEEDED
        assert statuses["queued-2"] is JobStatus.CANCELLED
        count = registry.get("repro_service_jobs_total").value
        assert count(status="cancelled") == 2
        assert count(status="succeeded") == 2
        # Cancelled jobs count once each and add nothing to the latency histograms.
        assert registry.get("repro_service_job_run_seconds").count() == 2

    def test_cancel_finished_job_is_noop(self, dirty_language_table):
        with CleaningService(workers=1) as service:
            job = service.submit(dirty_language_table)
            job.wait(timeout=60)
            assert not service.cancel(job)


class TestFailureIsolation:
    def test_one_failing_job_does_not_poison_others(self, dirty_language_table):
        class ExplodingLLM(SimulatedSemanticLLM):
            def _complete(self, prompt, system=None):
                raise RuntimeError("model outage")

        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            return ExplodingLLM() if calls["n"] == 1 else SimulatedSemanticLLM()

        # One worker runs the jobs in submission order, so the failing job
        # meets an empty prompt cache and must call its model.
        service = CleaningService(workers=1, llm_factory=factory)
        try:
            bad = service.submit(dirty_language_table.copy("bad"))
            good = service.submit(dirty_language_table.copy("good"))
            bad_result, good_result = bad.wait(60), good.wait(60)
        finally:
            service.shutdown()
        assert bad_result.status is JobStatus.FAILED
        assert "model outage" in bad_result.error
        assert good_result.status is JobStatus.SUCCEEDED
        assert good_result.cleaning_result is not None


class TestServiceLifecycle:
    def test_submit_after_shutdown_raises(self):
        service = CleaningService(workers=1)
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.submit(Table.from_dict("t", {"a": ["1"]}))

    def test_priorities_order_execution_on_one_worker(self):
        gate = threading.Event()
        table = Table.from_dict(
            "t", {"lang": ["eng"] * 6 + ["English"] * 2, "note": ["ok"] * 6 + ["N/A"] * 2}
        )
        service = CleaningService(workers=1, llm_factory=lambda: _GatedLLM(gate))
        try:
            # The blocker occupies the single worker so the next two queue up.
            service.submit(table.copy("blocker"), priority=0)
            low = service.submit(table.copy("low"), priority=9)
            high = service.submit(table.copy("high"), priority=1)
            gate.set()
            assert high.wait(timeout=60) and low.wait(timeout=60)
        finally:
            gate.set()
            service.shutdown()
        # Submitted low-priority first, yet the high-priority job ran first.
        assert high.started_at is not None and low.started_at is not None
        assert high.started_at < low.started_at
