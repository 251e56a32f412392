"""One apply path: every operator decision is a PlanStep, reviewed and run once.

* the statement each operator executed equals the step rendered against the
  same source table and columns (and so equals what the plan emits), and a
  clean executes no other statement;
* a reviewer's edited mapping reaches the SQL, the repairs, the plan and the
  lineage of every step whose payload carries a mapping;
* a malformed model answer degrades to "no mapping" instead of aborting.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core import CleaningConfig, CocoonCleaner, extract_plan
from repro.core.dialects import SqliteDialect
from repro.core.hil import CallbackReviewer, ReviewDecision
from repro.dataframe import Table
from repro.datasets import dataset_names, load_dataset
from repro.llm.parsing import extract_json, render_json
from repro.llm.simulated import SimulatedSemanticLLM
from repro.sql.database import Database
from repro.stream import steady_state_stream


def _body(sql: str) -> str:
    """A statement without its leading comment block."""
    lines = sql.splitlines()
    while lines and lines[0].startswith("--"):
        lines.pop(0)
    return "\n".join(lines)


def _emitted_statements(script: str) -> List[str]:
    return script.rstrip().rstrip(";").split(";\n\n")


def _with_duplicates(name: str) -> Table:
    """A registry table with replayed rows, so duplication cleaning applies."""
    dirty = load_dataset(name, seed=0, scale=0.05).dirty
    whole, _ = steady_state_stream(
        dirty, traffic_batches=2, batch_rows=max(10, dirty.num_rows // 5), seed=7
    )
    return whole


def _with_key() -> Table:
    """A nearly-unique key column, so uniqueness cleaning applies."""
    ids = [str(i) for i in range(30)] + ["5"]
    dates = [f"2020-01-{i % 28 + 1:02d}" for i in range(31)]
    return Table.from_dict("keys", {"record_id": ids, "updated_date": dates})


def _runs():
    for name in dataset_names():
        yield name, load_dataset(name, seed=0, scale=0.05).dirty
    yield "hospital+duplicates", _with_duplicates("hospital")
    yield "keys", _with_key()


@pytest.fixture(scope="module")
def runs():
    """name -> (result, the text of every statement the clean executed)."""
    out = {}
    real_sql = Database.sql
    with pytest.MonkeyPatch.context() as patch:
        for name, table in _runs():
            executed: List[str] = []

            def spy(db, query, executed=executed):
                executed.append(query if isinstance(query, str) else query.text)
                return real_sql(db, query)

            patch.setattr(Database, "sql", spy)
            out[name] = (CocoonCleaner().clean(table), executed)
    return out


@pytest.fixture(scope="module")
def cleaned(runs):
    return {name: result for name, (result, _executed) in runs.items()}


class TestBatchMatchesPlan:
    def test_every_executed_statement_is_its_rendered_step(self, runs):
        kinds = set()
        for name, (result, executed) in runs.items():
            plan = extract_plan(result)
            applied = [op for op in result.operator_results if op.applied]
            assert executed == [op.sql for op in applied], name
            assert [op.step for op in applied] == plan.steps, name
            source = result.base_table
            for op in applied:
                rendered = op.step.render(source, op.step.target_table, plan.column_names)
                assert _body(rendered) == _body(op.sql), (name, op.issue_type, op.target)
                kinds.add(op.step.kind)
                source = op.step.target_table
        # Row-local and table-level steps are both covered.
        assert {"value_map", "null_values", "cast", "fd_map", "dedup", "unique"} <= kinds

    def test_emit_chains_the_executed_statements(self, cleaned):
        for name, result in cleaned.items():
            plan = extract_plan(result)
            executed = [op.sql for op in result.operator_results if op.applied]
            if not executed:
                continue
            # Default dialect: the script is the batch run's statements.
            emitted = _emitted_statements(plan.emit())
            assert [_body(s) for s in emitted] == [_body(s) for s in executed], name
            assert emitted[0].startswith(f"-- Cocoon cleaning plan for {plan.base_table} "
                                         f"({len(plan.steps)} steps, repro dialect).")
            # Any dialect: one statement per step, chained through the
            # operator-recorded table names from the base table onwards.
            sqlite = _emitted_statements(plan.emit(SqliteDialect()))
            assert len(sqlite) == len(plan.steps), name
            source = plan.base_table
            for statement, step in zip(sqlite, plan.steps):
                assert f'CREATE TABLE "{step.target_table}" AS' in statement, name
                assert f'FROM "{source}"' in statement, name
                source = step.target_table


def _pattern_only(table: Table, hil=None):
    config = CleaningConfig(enabled_issues=["pattern_outliers"])
    return CocoonCleaner(config=config, hil=hil).clean(table)


class TestReviewerEdits:
    def test_edited_pattern_mapping_is_executed_planned_and_recorded(self):
        table = load_dataset("rayyan", seed=0, scale=0.05).dirty
        proposed = {}

        def edit(finding, mapping, sql):
            proposed.update(mapping)
            return ReviewDecision(approved=True, edited_mapping={"1998-11-06": "06/11/1998"})

        result = _pattern_only(table, hil=CallbackReviewer(on_cleaning=edit))
        assert "2007-07-26" in proposed  # the reviewer saw the model's mapping
        (op,) = [op for op in result.operator_results if op.applied]
        assert "(reviewer-edited mapping)" in op.sql
        assert "WHEN '1998-11-06' THEN '06/11/1998'" in op.sql
        assert "2007-07-26" not in op.sql
        assert [(r.old_value, r.new_value) for r in op.repairs] == [("1998-11-06", "06/11/1998")]

        (step,) = extract_plan(result).steps
        assert step.payload["mapping"] == {"1998-11-06": "06/11/1998"}
        assert step.payload["standard_pattern"]  # the rest of the payload is kept
        records = [r for r in result.lineage.to_doc()["records"] if r["kind"] == "value_map"]
        assert records and all(
            r["decision"]["mapping"] == {"1998-11-06": "06/11/1998"} for r in records
        )
        assert {r["step_id"] for r in records} == {step.step_id}

    def test_edit_is_ignored_by_steps_without_a_mapping(self):
        table = load_dataset("hospital", seed=0, scale=0.05).dirty
        config = CleaningConfig(enabled_issues=["disguised_missing_value"])
        reference = CocoonCleaner(config=config).clean(table)
        reviewer = CallbackReviewer(
            on_cleaning=lambda finding, mapping, sql: ReviewDecision(
                approved=True, edited_mapping={"x": "y"}
            )
        )
        edited = CocoonCleaner(config=config, hil=reviewer).clean(table)
        assert edited.sql_script == reference.sql_script


class _ListValueMappingLLM(SimulatedSemanticLLM):
    """Answers every type suggestion with a ValueMapping that is not a dict."""

    def _column_type(self, prompt: str) -> str:
        answer = extract_json(super()._column_type(prompt))
        return render_json({**answer, "ValueMapping": ["oops"]})


class TestMalformedValueMapping:
    def test_non_dict_value_mapping_casts_without_a_mapping(self):
        table = load_dataset("hospital", seed=0, scale=0.05).dirty
        seen = []
        reviewer = CallbackReviewer(
            on_cleaning=lambda finding, mapping, sql: seen.append(mapping)
            or ReviewDecision(approved=True)
        )
        result = CocoonCleaner(llm=_ListValueMappingLLM(), hil=reviewer).clean(table)
        casts = [s for s in extract_plan(result).steps if s.kind == "cast"]
        assert casts
        assert all(step.payload["mapping"] == {} for step in casts)
        assert all(isinstance(mapping, dict) for mapping in seen)
        assert result.cleaned_table.num_rows == table.num_rows
