"""Gateway unit tests: the application object, no sockets involved."""

import threading

import pytest

from repro.core import CocoonCleaner
from repro.dataframe.io import read_csv_text, to_csv_text
from repro.llm.simulated import SimulatedSemanticLLM
from repro.server.gateway import BadRequest, CleaningGateway, ResultNotReady
from repro.service.scheduler import ServiceSaturated
from repro.stream.service import StreamBackpressure

DIRTY_CSV = (
    "city,population\n"
    "new york,8000000\n"
    "New York,8000000\n"
    "N/A,42\n"
    "boston,650000\n"
)


@pytest.fixture
def gateway():
    gw = CleaningGateway(workers=2, stream_workers=1)
    yield gw
    gw.shutdown(wait=True)


class TestParseTable:
    def test_csv_payload(self):
        table = CleaningGateway.parse_table({"csv": DIRTY_CSV, "name": "cities"})
        assert table.name == "cities"
        assert table.column_names == ["city", "population"]
        assert table.num_rows == 4

    def test_columns_payload(self):
        table = CleaningGateway.parse_table({"columns": {"a": [1, 2], "b": ["x", "y"]}})
        assert table.num_rows == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"csv": 7},
            {"columns": {"a": "not-a-list"}},
            {"columns": {"a": [1], "b": [1, 2]}},
            {"csv": DIRTY_CSV, "name": 3},
            {"csv": ""},
        ],
    )
    def test_bad_payloads_raise(self, payload):
        with pytest.raises(BadRequest):
            CleaningGateway.parse_table(payload)


class TestJobs:
    def test_submit_status_result_round_trip(self, gateway):
        submitted = gateway.submit_job({"csv": DIRTY_CSV, "name": "cities"})
        job_id = submitted["job_id"]
        job = gateway.service.job(job_id)
        job.wait()

        status = gateway.job_status(job_id)
        assert status["status"] == "succeeded" and status["done"] is True
        assert "service" not in status  # service counts live at /metrics
        assert gateway.metrics()["jobs"]["succeeded"] == 1

        result = gateway.job_result(job_id)
        assert result["status"] == "succeeded"
        assert "sql_script" in result and "csv" in result
        assert "-- " in result["sql_script"], "reasoning comments must be preserved"

        # Parity with the in-process pipeline, byte for byte.
        expected = CocoonCleaner().clean(
            read_csv_text(DIRTY_CSV, name="cities", infer_types=False)
        )
        assert result["csv"] == to_csv_text(expected.cleaned_table)
        assert result["sql_script"] == expected.sql_script

    def test_removed_chunk_rows_field_is_rejected(self, gateway):
        # Chunked cleaning is gone; the field must not be accepted and ignored.
        with pytest.raises(BadRequest, match="'chunk_rows'"):
            gateway.submit_job({"csv": DIRTY_CSV, "chunk_rows": 100})
        assert gateway.metrics()["jobs"]["submitted"] == 0

    def test_unknown_job_raises_key_error(self, gateway):
        with pytest.raises(KeyError):
            gateway.job_status(999_999_999)

    def test_result_not_ready(self, gateway):
        gw = CleaningGateway(workers=1, llm_factory=_slow_llm_factory(0.2))
        try:
            first = gw.submit_job({"csv": DIRTY_CSV})
            second = gw.submit_job({"csv": DIRTY_CSV, "name": "queued"})
            with pytest.raises(ResultNotReady):
                gw.job_result(second["job_id"])
            gw.service.job(first["job_id"]).wait()
        finally:
            gw.shutdown(wait=True)

    def test_bounded_admission_saturates(self):
        gw = CleaningGateway(
            workers=1, max_pending_jobs=1, llm_factory=_slow_llm_factory(0.2)
        )
        try:
            gw.submit_job({"csv": DIRTY_CSV})
            with pytest.raises(ServiceSaturated):
                gw.submit_job({"csv": DIRTY_CSV, "name": "overflow"})
        finally:
            gw.shutdown(wait=True)


class TestStreams:
    def test_stream_created_on_first_batch(self, gateway):
        doc = gateway.submit_stream_batch("tenant-a", {"csv": DIRTY_CSV})
        assert doc["stream"] == "tenant-a"
        assert doc["sequence"] == 0
        assert gateway.streams.stream("tenant-a").name == "tenant-a"
        gateway.streams.wait_idle()
        status = gateway.stream_status("tenant-a")
        assert status["completed_batches"] == 1
        assert status["failed"] is False

    def test_backpressure_raises(self):
        gw = CleaningGateway(
            stream_workers=1,
            max_pending_batches=1,
            llm_factory=_slow_llm_factory(0.2),
        )
        try:
            gw.submit_stream_batch("hot", {"csv": DIRTY_CSV})
            with pytest.raises(StreamBackpressure):
                gw.submit_stream_batch("hot", {"csv": DIRTY_CSV})
        finally:
            gw.streams.wait_idle()
            gw.shutdown(wait=True)

    def test_unknown_stream_status_raises(self, gateway):
        with pytest.raises(KeyError):
            gateway.stream_status("never-created")


class TestObservability:
    def test_healthz(self, gateway):
        doc = gateway.healthz()
        assert doc["status"] == "ok"
        assert doc["uptime_seconds"] >= 0

    def test_metrics_counts_jobs_and_cache(self, gateway):
        submitted = gateway.submit_job({"csv": DIRTY_CSV})
        gateway.service.job(submitted["job_id"]).wait()
        metrics = gateway.metrics()
        assert metrics["gateway"]["jobs_submitted"] == 1
        assert metrics["jobs"]["succeeded"] == 1
        assert metrics["jobs"]["pending"] == 0
        assert set(metrics["cache"]) == {"hits", "misses", "hit_rate", "size"}
        assert metrics["cache"]["misses"] > 0, "the cleaning run must have hit the shared store"

    def test_queue_depths_count_waiting_work(self):
        gate, entered = threading.Event(), threading.Semaphore(0)

        class GatedLLM(SimulatedSemanticLLM):
            def _complete(self, prompt, system=None):
                entered.release()
                assert gate.wait(timeout=30), "test gate was never opened"
                return super()._complete(prompt, system=system)

        def depths(gw):
            metrics = gw.metrics()
            return metrics["jobs"]["queue_depth"], metrics["streams"]["queue_depth"]

        gw = CleaningGateway(workers=1, stream_workers=1, llm_factory=GatedLLM)
        submitted = []
        try:
            assert depths(gw) == (0, 0)
            running = gw.submit_job({"csv": DIRTY_CSV, "name": "running"})
            submitted.append(running)
            assert entered.acquire(timeout=30)
            submitted.append(gw.submit_job({"csv": DIRTY_CSV, "name": "queued"}))
            gw.submit_stream_batch("s", {"csv": DIRTY_CSV})
            assert entered.acquire(timeout=30)  # the stream worker is held too
            gw.submit_stream_batch("s", {"csv": DIRTY_CSV})
            gw.submit_stream_batch("t", {"csv": DIRTY_CSV})
            assert depths(gw) == (1, 2)
            scraped = [
                line.split()[1]
                for line in gw.metrics_text().splitlines()
                if line.startswith("repro_stream_queue_depth ")
            ]
            assert [float(value) for value in scraped] == [2.0]
        finally:
            gate.set()
            for job in submitted:
                gw.service.job(job["job_id"]).wait(timeout=60)
            gw.streams.wait_idle(timeout=60)
            gw.shutdown(wait=True)
        assert gw.service.job(running["job_id"]).done
        assert depths(gw) == (0, 0)

    def test_shared_cache_spans_batch_and_stream(self, gateway):
        submitted = gateway.submit_job({"csv": DIRTY_CSV, "name": "cities"})
        gateway.service.job(submitted["job_id"]).wait()
        hits_before = gateway.cache.stats()["hits"]
        gateway.submit_stream_batch("cities", {"csv": DIRTY_CSV, "name": "cities"})
        gateway.streams.wait_idle()
        stats = gateway.cache.stats()
        assert stats["hits"] > hits_before, (
            "the stream's priming prompts should reuse the batch job's cached responses"
        )

    def test_draining_flag(self, gateway):
        assert gateway.draining is False
        gateway.shutdown(wait=True)
        assert gateway.draining is True
        assert gateway.healthz()["status"] == "draining"


def _slow_llm_factory(latency):
    from repro.llm.simulated import SimulatedSemanticLLM

    def factory():
        return SimulatedSemanticLLM(latency_seconds=latency)

    return factory
