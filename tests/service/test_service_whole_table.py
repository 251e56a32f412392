"""Service jobs run the one whole-table clean path.

Every job is ``CachingLLMClient`` + ``CocoonCleaner.clean`` on the whole table:
its result, repairs, lineage and spans are those of an in-process clean.  The
chunked path and its settable values are gone; the keyword arguments, result
fields and metric families it used to add are rejected or absent.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro import CleaningService, CocoonCleaner, JobStatus, load_dataset, obs
from repro.dataframe import Table
from repro.llm import PromptCacheStore, SimulatedSemanticLLM
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.service import CleaningJob, JobResult

from tests.obs.test_lineage_differential import assert_gate


def all_spans(tracer):
    """Every span in the tracer, flattened (fragments nest their children)."""

    def walk(span):
        yield span
        for child in span.children:
            yield from walk(child)

    return [
        span
        for trace_id in tracer.trace_ids()
        for fragment in tracer.fragments(trace_id)
        for span in walk(fragment)
    ]


@pytest.fixture(scope="module")
def hospital():
    return load_dataset("hospital", seed=0, scale=0.2)


@pytest.fixture(scope="module")
def hospital_whole(hospital):
    return CocoonCleaner().clean(hospital.dirty)


@pytest.fixture(scope="module")
def served(hospital):
    """One service job over hospital@0.2."""
    with CleaningService(workers=2) as service:
        result = service.submit(hospital.dirty).wait(timeout=300)
    assert result.ok
    return result


@pytest.fixture
def tracer():
    """The default tracer, switched back to its prior state afterwards."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.clear()
    yield tracer
    obs.configure(enabled=was_enabled)
    tracer.clear()


class TestJobMatchesInProcessClean:
    def test_cleaned_table_and_script_match(self, served, hospital_whole):
        cleaning = served.cleaning_result
        assert cleaning.cleaned_table == hospital_whole.cleaned_table
        assert cleaning.sql_script == hospital_whole.sql_script
        assert cleaning.llm_calls == hospital_whole.llm_calls

    def test_job_counters_describe_the_clean(self, served, hospital):
        cleaning = served.cleaning_result
        assert served.rows == hospital.dirty.num_rows
        assert served.columns == hospital.dirty.num_columns
        assert served.llm_calls == cleaning.llm_calls > 0
        assert served.cell_repairs == len(cleaning.repairs) > 0
        assert served.removed_rows == len(cleaning.removed_row_ids)

    def test_repairs_address_original_rows(self, served, hospital):
        rows = {repair.row_id for repair in served.cleaning_result.repairs}
        # Repairs reach past the first hundred rows, addressed by original position.
        assert any(row_id >= 100 for row_id in rows)
        assert all(0 <= row_id < hospital.dirty.num_rows for row_id in rows)

    def test_shared_cache_store_preserves_output(self, hospital, hospital_whole):
        store = PromptCacheStore()
        with CleaningService(workers=1, cache_store=store) as service:
            first = service.submit(hospital.dirty).wait(timeout=300)
            second = service.submit(hospital.dirty).wait(timeout=300)
        assert store.stats()["size"] > 0
        assert store.stats()["hits"] > 0  # the second job replays the first one's prompts
        for result in (first, second):
            assert result.cleaning_result.cleaned_table == hospital_whole.cleaned_table


class TestJobLineageAndSpans:
    def test_lineage_explains_exactly_the_diff(self, served, hospital):
        cleaning = served.cleaning_result
        assert cleaning.lineage is not None
        assert_gate(cleaning.lineage, hospital.dirty, cleaning.cleaned_table)

    def test_lineage_covers_rows_across_the_table(self, served):
        rows = {record["row_id"] for record in served.cleaning_result.lineage.records}
        assert any(row_id < 100 for row_id in rows)
        assert any(row_id >= 100 for row_id in rows)

    def test_pipeline_span_hangs_off_the_job_span(self, hospital, tracer):
        obs.configure(enabled=True)
        with CleaningService(workers=1) as service:
            result = service.submit(hospital.dirty).wait(timeout=300)
        spans = all_spans(tracer)
        jobs = [s for s in spans if s.name == "service.job"]
        cleans = [s for s in spans if s.name == "pipeline.clean"]
        assert len(jobs) == 1 and len(cleans) == 1
        assert cleans[0].parent_id == jobs[0].span_id
        assert cleans[0].trace_id == jobs[0].trace_id == f"job-{result.job_id}"
        traced = [r for r in result.cleaning_result.lineage.records if r["span_id"] is not None]
        assert traced
        assert {r["span_id"] for r in traced} <= {s.span_id for s in spans}


class TestEdgeTablesAndFailures:
    def test_zero_row_job_succeeds_without_llm_calls(self):
        empty = Table.from_dict("empty", {"a": [], "b": []})
        with CleaningService(workers=1) as service:
            result = service.submit(empty).wait(timeout=60)
        assert result.ok
        assert result.rows == 0
        assert result.llm_calls == 0
        assert result.cleaning_result.cleaned_table.num_rows == 0
        assert result.cleaning_result.cleaned_table.column_names == ["a", "b"]

    def test_llm_outage_fails_the_job(self, hospital):
        class ExplodingLLM(SimulatedSemanticLLM):
            def _complete(self, prompt, system=None):
                raise RuntimeError("model outage")

        registry = MetricsRegistry()
        with CleaningService(
            workers=1, llm_factory=ExplodingLLM, metrics_registry=registry
        ) as service:
            result = service.submit(hospital.dirty).wait(timeout=300)
        # No second path to fall back on: the job fails and says why.
        assert result.status is JobStatus.FAILED
        assert result.cleaning_result is None
        assert "model outage" in result.error
        count = registry.get("repro_service_jobs_total").value
        assert count(status="failed") == 1 and count(status="succeeded") == 0


class TestRemovedChunkOptions:
    @pytest.mark.parametrize("option", ["default_chunk_rows", "chunk_workers"])
    def test_service_constructor_rejects(self, option):
        with pytest.raises(TypeError, match=option):
            CleaningService(workers=1, **{option: 100})

    def test_submit_rejects_chunk_rows(self):
        table = Table.from_dict("tiny", {"a": ["x", "y"]})
        registry = MetricsRegistry()
        with CleaningService(workers=1, metrics_registry=registry) as service:
            with pytest.raises(TypeError, match="chunk_rows"):
                service.submit(table, chunk_rows=100)
            assert service.pending_jobs == 0
        assert registry.get("repro_service_jobs_submitted_total").total() == 0

    def test_job_and_result_have_no_chunk_fields(self):
        job_fields = {f.name for f in dataclasses.fields(CleaningJob)}
        result_fields = {f.name for f in dataclasses.fields(JobResult)}
        assert "chunk_rows" not in job_fields
        assert not {"chunked", "chunk_count", "fell_back"} & result_fields

    def test_metrics_have_no_chunk_counters(self):
        registry = MetricsRegistry()
        with CleaningService(workers=1, metrics_registry=registry) as service:
            service.submit(Table.from_dict("tiny", {"a": ["x", "y"]})).wait(timeout=60)
        text = registry.render_prometheus()
        assert "repro_service_jobs_total" in text
        assert "repro_service_chunked_jobs_total" not in text
        assert "repro_service_fallback_jobs_total" not in text

    @pytest.mark.parametrize(
        "name", ["clean_chunked", "ChunkedCleaningResult", "ChunkMergeError"]
    )
    def test_packages_do_not_export(self, name):
        assert not hasattr(repro, name)
        assert not hasattr(repro.service, name)
