"""CleaningPlan extraction, validation, summary and batch replay."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import CocoonCleaner, CleaningPlan, PlanExtractionError, PlanStep, extract_plan
from repro.core.context import ROW_ID_COLUMN
from repro.datasets import load_dataset
from repro.stream import partition_table


@pytest.fixture(scope="module")
def hospital_run():
    ds = load_dataset("hospital", seed=0, scale=0.05)
    result = CocoonCleaner().clean(ds.dirty)
    return ds, result


class TestExtraction:
    def test_every_applied_operator_contributes_a_step(self, hospital_run):
        _, result = hospital_run
        plan = extract_plan(result)
        applied = [op for op in result.operator_results if op.applied]
        assert len(plan.steps) == len(applied)
        assert plan.llm_calls_invested == result.llm_calls
        assert plan.base_table == result.base_table != ""

    def test_row_local_steps_form_a_prefix(self, hospital_run):
        _, result = hospital_run
        plan = extract_plan(result)
        flags = [step.row_local for step in plan.steps]
        assert flags == sorted(flags, reverse=True)

    def test_missing_base_table_rejected(self, hospital_run):
        _, result = hospital_run
        import dataclasses

        broken = dataclasses.replace(result, base_table="")
        with pytest.raises(PlanExtractionError, match="base_table"):
            extract_plan(broken)

    def test_interleaved_table_level_step_rejected(self):
        dedup = PlanStep(kind="dedup", issue_type="duplication", target="t",
                         target_table="x", payload={"columns": ["a"]})
        value_map = PlanStep(kind="value_map", issue_type="string_outliers", target="a",
                             target_table="y", payload={"column": "a", "mapping": {}})
        with pytest.raises(PlanExtractionError, match="prefix"):
            CleaningPlan(base_table="t", column_names=["a"], steps=[dedup, value_map])

    def test_unknown_kind_rejected(self):
        bogus = PlanStep(kind="teleport", issue_type="x", target="t",
                         target_table="x", payload={})
        with pytest.raises(PlanExtractionError, match="Unknown"):
            CleaningPlan(base_table="t", column_names=["a"], steps=[bogus])


class TestSummary:
    def test_summary_text_lists_steps(self, hospital_run):
        _, result = hospital_run
        plan = extract_plan(result)
        text = plan.summary_text()
        assert f"{len(plan.steps)} steps" in text
        assert "row-local" in text


class TestReplay:
    def test_batched_replay_equals_whole_table_cells(self, hospital_run):
        ds, result = hospital_run
        plan = extract_plan(result)
        working = CocoonCleaner._with_row_ids(ds.dirty, plan.base_table)
        n = working.num_rows
        parts = [
            plan.replay_row_local(part)
            for part in partition_table(working, [n // 3, 2 * n // 3])
        ]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.concat(part, check_types=True)
        assert merged.drop([ROW_ID_COLUMN]).to_dict() == result.cleaned_table.to_dict()

    def test_replay_validates_batch_columns(self, hospital_run):
        ds, result = hospital_run
        plan = extract_plan(result)
        with pytest.raises(ValueError, match="do not match plan columns"):
            plan.replay_row_local(ds.dirty)  # missing the row-id column

    def test_replay_prepares_once_and_follows_a_replaced_step(self, hospital_run):
        ds, result = hospital_run
        plan = extract_plan(result)
        working = CocoonCleaner._with_row_ids(ds.dirty, plan.base_table)
        before = plan.replay_row_local(working)
        chain = plan._replay_chain(f"{plan.base_table}__replay")
        plan.replay_row_local(working)
        assert plan._replay_chain(f"{plan.base_table}__replay") is chain

        # A reviewer's edit is a new step: the next replay renders it afresh.
        index, step = next(
            (i, s) for i, s in enumerate(plan.steps) if s.kind == "value_map" and s.payload["mapping"]
        )
        old = next(iter(step.payload["mapping"]))
        edited = dataclasses.replace(step, payload={**step.payload, "mapping": {old: "EDITED"}})
        plan.steps[index] = edited
        after = plan.replay_row_local(working)
        assert plan._replay_chain(f"{plan.base_table}__replay") is not chain
        column = step.payload["column"]
        rows = [i for i, v in enumerate(working.column(column).values) if str(v) == old]
        assert rows and all(after.column(column).values[i] == "EDITED" for i in rows)
        assert all(before.column(column).values[i] != "EDITED" for i in rows)
