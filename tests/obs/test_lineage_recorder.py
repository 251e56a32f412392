"""Unit tests for the lineage recorder, schema, and query surface."""

from __future__ import annotations

import datetime
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import CocoonCleaner
from repro.datasets import load_dataset
from repro.obs import get_tracer
from repro.obs.lineage import (
    LineageRecorder,
    LineageSchemaError,
    json_safe_record,
    lineage_step_id,
    records_from_docs,
    validate_lineage_lines,
    validate_lineage_record,
    values_strictly_differ,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def edit(recorder, row, column, before, after, operator="string_outliers", **kw):
    return recorder.record_edit(
        row, column, before, after,
        operator=operator,
        target=kw.pop("target", column),
        kind=kw.pop("kind", "value_map"),
        step_id=kw.pop("step_id", "a" * 16),
        **kw,
    )


class TestStrictPredicate:
    @pytest.mark.parametrize(
        "a,b,differ",
        [
            (None, None, False),
            (None, float("nan"), False),
            (float("nan"), float("nan"), False),
            (None, "", True),
            ("12", 12, False),      # same surface representation
            (12, 12.0, True),       # '12' vs '12.0'
            ("x", "x", False),
            (1.5, "1.5", False),    # same str form
        ],
    )
    def test_cases(self, a, b, differ):
        assert values_strictly_differ(a, b) is differ

    def test_agrees_with_datasets_twin(self):
        from repro.datasets.base import strict_differs

        probes = [None, float("nan"), "", "x", 0, 1, 1.0, "1.0", True, "True", 12, "12"]
        for a in probes:
            for b in probes:
                assert values_strictly_differ(a, b) == strict_differs(a, b), (a, b)


class TestStepId:
    def test_deterministic_and_payload_sensitive(self):
        payload = {"column": "c", "mapping": {"a": "b"}}
        one = lineage_step_id("value_map", "string_outliers", "c", "t1", payload)
        two = lineage_step_id("value_map", "string_outliers", "c", "t1", dict(payload))
        assert one == two and len(one) == 16
        other = lineage_step_id("value_map", "string_outliers", "c", "t1", {"column": "c", "mapping": {"a": "z"}})
        assert other != one

    def test_matches_plan_step_property(self):
        from repro.core.plan import PlanStep

        step = PlanStep(
            kind="value_map", issue_type="string_outliers", target="c",
            target_table="t1", payload={"column": "c", "mapping": {"a": "b"}},
        )
        assert step.step_id == lineage_step_id(
            "value_map", "string_outliers", "c", "t1", step.payload
        )


class TestRecorder:
    def test_phase_validated(self):
        with pytest.raises(ValueError, match="phase"):
            LineageRecorder(phase="nope")

    def test_changed_cells_composes_chains(self):
        rec = LineageRecorder()
        edit(rec, 0, "c", "a", "b")
        edit(rec, 0, "c", "b", "final")
        edit(rec, 1, "c", "x", "y")
        edit(rec, 2, "c", "p", "q")
        edit(rec, 2, "c", "q", "p")  # round trip nets out
        assert rec.changed_cells() == {(0, "c"): ("a", "final"), (1, "c"): ("x", "y")}

    def test_removed_rows_excluded_from_changed_cells(self):
        rec = LineageRecorder()
        edit(rec, 0, "c", "a", "b")
        rec.record_removal(0, operator="duplication", target="t", kind="dedup", step_id="b" * 16)
        assert rec.changed_cells() == {}
        assert rec.removed_row_ids() == {0}

    def test_discard_removals_resurfaces_row(self):
        rec = LineageRecorder()
        edit(rec, 0, "c", "a", "b")
        rec.record_removal(0, operator="column_uniqueness", target="k", kind="unique",
                           step_id="c" * 16, mode="retracted")
        assert rec.changed_cells() == {}
        assert rec.discard_removals([0, 7]) == 1
        assert rec.changed_cells() == {(0, "c"): ("a", "b")}
        assert rec.discard_removals([0]) == 0

    def test_explain_orders_by_seq_and_includes_removal(self):
        rec = LineageRecorder()
        edit(rec, 3, "c", "a", "b")
        edit(rec, 3, "d", "p", "q")
        rec.record_removal(3, operator="duplication", target="t", kind="dedup", step_id="d" * 16)
        chain = rec.explain(3, "c")
        assert [r["event"] for r in chain] == ["edit", "remove"]
        assert [r["seq"] for r in chain] == sorted(r["seq"] for r in chain)
        assert len(rec.explain(3)) == 3
        assert rec.explain(99) == []

    def test_census_counts(self):
        rec = LineageRecorder()
        edit(rec, 0, "c", "a", "b", operator="string_outliers")
        edit(rec, 0, "c", "b", "a", operator="column_type")  # round trip: no net cell
        edit(rec, 1, "c", "x", "y", operator="column_type")
        rec.record_removal(2, operator="duplication", target="t", kind="dedup", step_id="e" * 16)
        census = rec.census()
        assert census["string_outliers"] == {"edits": 1, "net_cells": 0, "removed_rows": 0}
        assert census["column_type"] == {"edits": 2, "net_cells": 1, "removed_rows": 0}
        assert census["duplication"] == {"edits": 0, "net_cells": 0, "removed_rows": 1}

    def test_reset_forgets_everything(self):
        rec = LineageRecorder()
        edit(rec, 0, "c", "a", "b")
        rec.reset()
        assert len(rec) == 0
        edit(rec, 0, "c", "a", "b")
        assert rec.records[0]["seq"] == 1


ROW_IDS = st.integers(0, 5)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("edit"), ROW_IDS),
        st.tuples(st.just("remove"), ROW_IDS),
        st.tuples(st.just("discard"), st.lists(ROW_IDS, max_size=3)),
        st.tuples(st.just("reset"), st.none()),
        st.tuples(st.just("rebuild"), st.none()),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(operations=OPERATIONS)
def test_removal_index_equals_the_scan_over_records(operations):
    rec = LineageRecorder()
    for operation, arg in operations:
        if operation == "edit":
            edit(rec, arg, "c", "a", "b")
        elif operation == "remove":
            rec.record_removal(arg, operator="duplication", target="t", kind="dedup", step_id="b" * 16)
        elif operation == "discard":
            before = len(rec.records)
            assert rec.discard_removals(iter(arg)) == before - len(rec.records)
        elif operation == "reset":
            rec.reset()
        else:
            rec = records_from_docs(rec.records)
        removals = [r["row_id"] for r in rec.records if r["event"] == "remove"]
        assert rec._removals == {row_id: removals.count(row_id) for row_id in removals}
        assert rec.removed_row_ids() == set(removals)


class TestSchema:
    def make_valid(self):
        rec = LineageRecorder()
        edit(rec, 0, "c", "a", "b",
             llm=[{"cache_key": "k" * 16, "hit": None, "purpose": "detection"}])
        return rec.records[0]

    def test_valid_record_passes(self):
        validate_lineage_record(self.make_valid())

    @pytest.mark.parametrize("field", ["event", "seq", "row_id", "column", "before",
                                       "after", "decision", "llm", "step_id", "phase"])
    def test_missing_field_rejected(self, field):
        doc = dict(self.make_valid())
        del doc[field]
        with pytest.raises(LineageSchemaError, match="missing"):
            validate_lineage_record(doc)

    def test_edit_without_column_rejected(self):
        doc = dict(self.make_valid())
        doc["column"] = None
        with pytest.raises(LineageSchemaError, match="column"):
            validate_lineage_record(doc)

    def test_bad_mode_rejected(self):
        doc = dict(self.make_valid())
        doc["event"] = "remove"
        doc["mode"] = "vanished"
        with pytest.raises(LineageSchemaError, match="mode"):
            validate_lineage_record(doc)

    def test_edit_with_mode_rejected(self):
        doc = dict(self.make_valid())
        doc["mode"] = "dropped"
        with pytest.raises(LineageSchemaError, match="mode"):
            validate_lineage_record(doc)

    def test_llm_entry_shape_enforced(self):
        doc = dict(self.make_valid())
        doc["llm"] = [{"cache_key": "k"}]
        with pytest.raises(LineageSchemaError, match="llm"):
            validate_lineage_record(doc)

    def test_date_cell_values_are_scalars(self):
        rec = LineageRecorder()
        edit(rec, 0, "c", "05/02/2015", datetime.date(2015, 5, 2), kind="cast")
        validate_lineage_record(rec.records[0])
        safe = json_safe_record(rec.records[0])
        assert safe["after"] == "2015-05-02"
        json.dumps(safe)  # JSON-transportable without default=


class TestJsonlRoundtrip:
    def test_export_validate_rebuild(self, tmp_path):
        rec = LineageRecorder()
        edit(rec, 0, "c", "a", "b")
        edit(rec, 1, "c", None, "filled")
        rec.record_removal(2, operator="duplication", target="t", kind="dedup", step_id="f" * 16)
        path = tmp_path / "lineage.jsonl"
        assert rec.export_jsonl(path) == 3
        docs = validate_lineage_lines(path.read_text().splitlines(), source=str(path))
        rebuilt = records_from_docs(docs)
        assert rebuilt.changed_cells() == rec.changed_cells()
        assert rebuilt.removed_row_ids() == rec.removed_row_ids()
        assert rebuilt.census() == rec.census()

    def test_invalid_line_names_position(self):
        with pytest.raises(LineageSchemaError, match="x:2"):
            validate_lineage_lines(["", '{"event": "edit"}'], source="x")


class TestLineageCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "lineage", *args],
            capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )

    @pytest.fixture()
    def lineage_file(self, tmp_path):
        rec = LineageRecorder()
        edit(rec, 0, "city", "NYC", "New York")
        edit(rec, 0, "city", "New York", "new york", operator="column_type", kind="cast")
        path = tmp_path / "l.jsonl"
        rec.export_jsonl(path)
        return str(path)

    def test_summary_and_census(self, lineage_file):
        proc = self.run_cli(lineage_file)
        assert proc.returncode == 0, proc.stderr
        assert "2 lineage records: 2 edits, 0 removals" in proc.stdout
        assert "string_outliers" in proc.stdout and "column_type" in proc.stdout

    def test_validate_only(self, lineage_file):
        proc = self.run_cli(lineage_file, "--validate")
        assert proc.returncode == 0
        assert "schema ok" in proc.stdout

    def test_explain_cell(self, lineage_file):
        proc = self.run_cli(lineage_file, "--explain", "0", "--column", "city")
        assert proc.returncode == 0, proc.stderr
        assert "2 record(s)" in proc.stdout
        assert "'NYC' -> 'New York'" in proc.stdout

    def test_invalid_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "edit"}\n')
        proc = self.run_cli(str(bad))
        assert proc.returncode == 1
        assert "invalid lineage file" in proc.stderr

    def test_column_requires_explain(self, lineage_file):
        proc = self.run_cli(lineage_file, "--column", "city")
        assert proc.returncode == 2


def _span_ids(tracer):
    """Every span id the tracer holds (fragments nest their children)."""

    def walk(span):
        yield span.span_id
        for child in span.children:
            yield from walk(child)

    return {
        span_id
        for trace_id in tracer.trace_ids()
        for fragment in tracer.fragments(trace_id)
        for span_id in walk(fragment)
    }


class TestSpanRefs:
    @pytest.fixture(scope="class")
    def hospital(self):
        return load_dataset("hospital", seed=0, scale=0.05).dirty

    @pytest.fixture
    def tracer(self):
        """The default tracer, switched back to its prior state afterwards."""
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.clear()
        yield tracer
        obs.configure(enabled=was_enabled)
        tracer.clear()

    def test_records_reference_existing_spans_when_tracing(self, hospital, tracer):
        obs.configure(enabled=True)
        result = CocoonCleaner().clean(hospital)
        traced = [r for r in result.lineage.records if r["span_id"] is not None]
        assert traced, "lineage records must carry trace refs when tracing is on"
        assert {r["span_id"] for r in traced} <= _span_ids(tracer)

    def test_step_diff_spans_and_the_span_records_name(self, hospital, tracer):
        """Each applied step opens ``core.diff`` and ``lineage.record`` under its
        operator's span; the step's records name that operator span, not the
        recording span."""
        obs.configure(enabled=True)
        result = CocoonCleaner().clean(hospital)
        spans = {}
        parents = {}

        def walk(span, parent):
            spans[span.span_id] = span
            parents[span.span_id] = parent
            for child in span.children:
                walk(child, span)

        for trace_id in tracer.trace_ids():
            for fragment in tracer.fragments(trace_id):
                walk(fragment, None)
        steps = sum(op.step is not None for op in result.operator_results)
        for name in ("core.diff", "lineage.record"):
            opened = [s for s in spans.values() if s.name == name]
            assert len(opened) == steps > 0
            assert all(parents[s.span_id].name.startswith("operator.") for s in opened)
        named = {spans[r["span_id"]].name for r in result.lineage.records}
        assert named and all(n.startswith("operator.") for n in named)

    def test_tracing_disabled_leaves_refs_null(self, hospital, tracer):
        obs.configure(enabled=False)
        result = CocoonCleaner().clean(hospital)
        assert result.lineage.records
        assert all(r["span_id"] is None for r in result.lineage.records)
        assert all(r["trace_id"] is None for r in result.lineage.records)
