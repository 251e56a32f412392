"""StreamService: shared-pool dispatch, per-stream ordering, backpressure."""

from __future__ import annotations

import sys
import threading
from unittest.mock import patch

import pytest

from repro.dataframe import Table
from repro.stream import (
    StreamBackpressure,
    StreamingCleaner,
    StreamService,
    iter_table_batches,
)


def make_table(n, name="t", offset=0):
    return Table.from_dict(
        name,
        {
            "city": (["NY", "New York", "LA"] * (n // 3 + 1))[:n],
            "note": [f"n{offset + i}" for i in range(n)],
        },
    )


class TestDispatchAndOrdering:
    def test_two_streams_share_the_pool(self):
        with StreamService(workers=3) as service:
            service.get_or_create_stream("alpha")
            service.get_or_create_stream("beta")
            jobs = []
            for name in ("alpha", "beta"):
                table = make_table(40, name)
                jobs.extend(service.submit(name, b) for b in iter_table_batches(table, 10))
            assert service.wait_idle(timeout=60)
            assert all(job.done and job.error is None for job in jobs)
            finished = service.registry.get("repro_stream_batches_total")
            assert len(service.list_streams()) == 2
            assert finished.value(status="succeeded") == len(jobs)
            assert finished.total() == len(jobs)
            for name in ("alpha", "beta"):
                stats = service.stream(name).cleaner.stats
                assert stats.rows_ingested == 40
                assert stats.replayed_batches == 3  # 4 batches: 1 prime + 3 replays

    def test_batches_process_in_submission_order(self):
        with StreamService(workers=4) as service:
            service.get_or_create_stream("ordered")
            table = make_table(60, "ordered")
            jobs = [service.submit("ordered", b) for b in iter_table_batches(table, 6)]
            assert service.wait_idle(timeout=60)
            indexes = [job.result.batch_index for job in jobs]
            assert indexes == sorted(indexes)
            # Row ids are assigned in arrival order across batches.
            firsts = [job.result.first_row_id for job in jobs]
            assert firsts == sorted(firsts)

    def test_concurrent_producers_on_one_stream_do_not_deadlock(self):
        # Sequence assignment and enqueue are one step under the stream's
        # lock, so racing producers on one worker neither reorder nor stall.
        with StreamService(workers=1, max_pending_batches=8) as service:
            service.get_or_create_stream("raced")
            errors = []

            def produce(offset):
                try:
                    for i in range(4):
                        service.submit("raced", make_table(6, "raced", offset + i * 6))
                except Exception as exc:  # pragma: no cover - diagnostic path
                    errors.append(exc)

            threads = [threading.Thread(target=produce, args=(k * 24,)) for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert service.wait_idle(timeout=60)
            finished = service.registry.get("repro_stream_batches_total")
            assert finished.value(status="succeeded") == 12
            assert finished.total() == 12

    def test_a_blocked_stream_does_not_hold_back_another(self):
        # a0 blocks one worker and a1 must wait for it; the other worker must
        # still be free for b0 rather than sit behind a1.
        gate, entered = threading.Event(), threading.Event()
        with StreamService(workers=2) as service:
            stream_a = service.get_or_create_stream("a")
            service.get_or_create_stream("b")
            original = stream_a.cleaner.process_batch

            def gated(batch):
                entered.set()
                assert gate.wait(timeout=30), "test gate was never opened"
                return original(batch)

            stream_a.cleaner.process_batch = gated
            try:
                a0 = service.submit("a", make_table(6, "a"))
                assert entered.wait(timeout=30)
                a1 = service.submit("a", make_table(6, "a", offset=6))
                b0 = service.submit("b", make_table(6, "b"))
                assert b0.wait(timeout=10) is not None, "b0 queued behind stream a"
                assert b0.error is None
                assert not a0.done and not a1.done
                assert service.queue_depth == 1  # a1, behind the running a0
            finally:
                gate.set()
            assert service.wait_idle(timeout=60)
        assert a0.error is None and a1.error is None
        assert a0.result.batch_index < a1.result.batch_index

    def test_unknown_stream_rejected(self):
        with StreamService(workers=1) as service:
            with pytest.raises(KeyError, match="Unknown stream"):
                service.submit("ghost", make_table(3))

    def test_racing_first_uses_share_one_stream(self):
        # Eight threads ask for one new name at once: each must get the same
        # stream, and only one cleaner may be built for it.
        built = []
        original_init = StreamingCleaner.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original_init(self, *args, **kwargs)

        service = StreamService(workers=1)
        start = threading.Barrier(8)
        streams = []

        def first_use():
            start.wait(timeout=30)
            streams.append(service.get_or_create_stream("s"))

        threads = [threading.Thread(target=first_use) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with patch.object(StreamingCleaner, "__init__", counting_init):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            service.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert len(streams) == 8 and all(stream is streams[0] for stream in streams)
        assert built == [streams[0].cleaner]


class TestBackpressure:
    def test_nonblocking_submit_raises_when_full(self):
        gate = threading.Event()

        class GatedTable(Table):
            pass

        with StreamService(workers=1, max_pending_batches=2) as service:
            stream = service.get_or_create_stream("slow")
            original = stream.cleaner.process_batch

            def stalled(batch):
                gate.wait(timeout=30)
                return original(batch)

            stream.cleaner.process_batch = stalled
            service.submit("slow", make_table(6))
            service.submit("slow", make_table(6, offset=6), block=False)
            with pytest.raises(StreamBackpressure):
                service.submit("slow", make_table(6, offset=12), block=False)
            assert stream.pending_batches == 2
            gate.set()
            assert service.wait_idle(timeout=60)
            # Capacity freed: submission works again.
            service.submit("slow", make_table(6, offset=18), block=False)
            assert service.wait_idle(timeout=60)

    def test_blocking_submit_times_out(self):
        gate = threading.Event()
        with StreamService(workers=1, max_pending_batches=1) as service:
            stream = service.get_or_create_stream("slow")
            original = stream.cleaner.process_batch
            stream.cleaner.process_batch = lambda b: (gate.wait(timeout=30), original(b))[1]
            service.submit("slow", make_table(6))
            with pytest.raises(StreamBackpressure):
                service.submit("slow", make_table(6, offset=6), timeout=0.05)
            gate.set()
            assert service.wait_idle(timeout=60)

    def test_submit_after_shutdown_raises_and_frees_capacity(self):
        service = StreamService(workers=1, max_pending_batches=1)
        stream = service.get_or_create_stream("late")
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit("late", make_table(6))
        assert stream.pending_batches == 0
        stream.reserve(block=False, timeout=None)  # the slot was handed back

    def test_shutdown_without_wait_still_drains_waiting_batches(self):
        # Once shut down the executor refuses the stream's re-queue; the
        # batches still waiting then run on the worker that holds the stream.
        gate, entered = threading.Event(), threading.Event()
        service = StreamService(workers=1)
        stream = service.get_or_create_stream("tail")
        original = stream.cleaner.process_batch

        def gated(batch):
            entered.set()
            assert gate.wait(timeout=30), "test gate was never opened"
            return original(batch)

        stream.cleaner.process_batch = gated
        try:
            jobs = [service.submit("tail", make_table(6, offset=6 * i)) for i in range(3)]
            assert entered.wait(timeout=30)
            service.shutdown(wait=False)
        finally:
            gate.set()
        service.shutdown(wait=True)
        assert stream.wait_idle(timeout=60)
        assert [job.error for job in jobs] == [None, None, None]
        assert [job.result.batch_index for job in jobs] == [0, 1, 2]

    def test_exception_in_the_block_cancels_waiting_batches(self):
        gate, entered = threading.Event(), threading.Event()
        service = StreamService(workers=1)
        stream = service.get_or_create_stream("tail")
        original = stream.cleaner.process_batch
        processed = []

        def gated(batch):
            processed.append(batch)
            entered.set()
            assert gate.wait(timeout=30), "test gate was never opened"
            return original(batch)

        stream.cleaner.process_batch = gated
        try:
            with pytest.raises(KeyboardInterrupt), service:
                jobs = [service.submit("tail", make_table(6, offset=6 * i)) for i in range(3)]
                assert entered.wait(timeout=30)
                raise KeyboardInterrupt
            # Settled before the running batch lets go of the worker.
            assert [job.done for job in jobs] == [False, True, True]
            assert all("cancelled" in job.error for job in jobs[1:])
            assert service.queue_depth == 0
        finally:
            gate.set()
        assert stream.wait_idle(timeout=60)
        assert jobs[0].error is None and jobs[0].result.batch_index == 0
        assert len(processed) == 1
        # Each batch is counted once, the cancelled ones under their own status.
        finished = service.registry.get("repro_stream_batches_total")
        assert finished.value(status="cancelled") == 2
        assert finished.value(status="succeeded") == 1
        assert finished.total() == 3
        stream.reserve(block=False, timeout=None)  # the slots were handed back

    def test_invalid_max_pending_rejected(self):
        with pytest.raises(ValueError):
            StreamService(max_pending_batches=0)


class TestFailureIsolation:
    def test_schema_error_fails_stream_but_not_service(self):
        with StreamService(workers=2) as service:
            service.get_or_create_stream("bad")
            service.get_or_create_stream("good")
            ok = service.submit("good", make_table(9, "good"))
            first = service.submit("bad", make_table(9, "bad"))
            broken = service.submit("bad", Table.from_dict("bad", {"other": ["x"]}))
            after = service.submit("bad", make_table(9, "bad", offset=9))
            assert service.wait_idle(timeout=60)
            assert ok.error is None
            assert first.error is None
            assert broken.error is not None and "schema" in broken.error
            # Later batches on the failed stream fail fast with the cause.
            assert after.error is not None and "already failed" in after.error
            assert service.stream("bad").failed is True
            assert service.stream("good").failed is False
            finished = service.registry.get("repro_stream_batches_total")
            assert finished.value(status="failed") == 2
