"""Degenerate table shapes from scenario traffic: empty, one-row, all-null.

Scenario batching is the natural factory for the awkward shapes
``CocoonCleaner.clean`` and ``Table.append_rows`` must survive — a
``NullSpikeModel`` at rate 1.0 produces all-null columns, ``batch_rows=1``
produces one-row batches, and ``take([])`` the empty table.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import CocoonCleaner
from repro.llm.simulated import SimulatedSemanticLLM
from repro.scenarios import ScenarioSpec, TrafficSpec, generate
from repro.scenarios.models import NullSpikeModel


@pytest.fixture(scope="module")
def all_null_scenario():
    spec = ScenarioSpec(
        name="null-chunks",
        base_dataset="hospital",
        columns=["City", "State", "Score"],
        models=[NullSpikeModel(rate=1.0, as_null=True)],
        traffic=TrafficSpec(batch_rows=1),
    )
    return generate(spec)


def test_scenario_can_produce_fully_null_columns(all_null_scenario) -> None:
    dirty = all_null_scenario.dataset.dirty
    for column in dirty.columns:
        assert all(value is None for value in column.values), column.name


def test_one_row_batches_cover_the_table(all_null_scenario) -> None:
    batches = all_null_scenario.batches()
    dirty = all_null_scenario.dataset.dirty
    assert len(batches) == dirty.num_rows
    assert all(batch.num_rows == 1 for batch in batches)


def test_clean_on_empty_scenario_table(all_null_scenario) -> None:
    empty = all_null_scenario.dataset.dirty.take([])
    llm = SimulatedSemanticLLM()
    result = CocoonCleaner(llm=llm).clean(empty)
    assert result.cleaned_table.num_rows == 0
    assert result.cleaned_table.column_names == empty.column_names
    assert result.llm_calls == 0
    assert llm.call_count == 0
    assert "No cleaning steps were necessary." in result.sql_script


def test_clean_on_one_row_scenario_table(all_null_scenario) -> None:
    one = all_null_scenario.dataset.dirty.take([0])
    result = CocoonCleaner(llm=SimulatedSemanticLLM()).clean(one)
    assert result.cleaned_table.num_rows == 1
    assert result.cleaned_table.column_names == one.column_names


def test_clean_on_all_null_table(all_null_scenario) -> None:
    dirty = all_null_scenario.dataset.dirty
    result = CocoonCleaner(llm=SimulatedSemanticLLM()).clean(dirty)
    # identical all-null rows collapse under the duplication operator
    assert 0 < result.cleaned_table.num_rows < dirty.num_rows
    assert result.cleaned_table.column_names == dirty.column_names
    for column in result.cleaned_table.columns:
        assert all(value is None for value in column.values), column.name


def test_append_rows_rebuilds_a_table_from_scenario_batches(all_null_scenario) -> None:
    dirty = all_null_scenario.dataset.dirty
    rebuilt = dirty.take([])
    for batch in all_null_scenario.batches():
        rebuilt = rebuilt.append_rows(batch.rows())
    assert rebuilt == dirty


def test_append_rows_on_empty_chunk_accepts_mappings_and_checks_schema(all_null_scenario) -> None:
    empty = all_null_scenario.dataset.dirty.take([])
    grown = empty.append_rows([{"City": "X"}])  # missing keys -> NULL
    assert grown.num_rows == 1
    assert grown.column("State").values == [None]
    with pytest.raises(ValueError, match="not in table columns"):
        empty.append_rows([{"Bogus": 1}])
    with pytest.raises(ValueError, match="width"):
        empty.append_rows([("too", "short")])


def test_append_rows_keeps_declared_dtypes_on_all_null_batches(all_null_scenario) -> None:
    dirty = all_null_scenario.dataset.dirty
    grown = dirty.append_rows([[None] * len(dirty.column_names)])
    assert grown.num_rows == dirty.num_rows + 1
    for before, after in zip(dirty.columns, grown.columns):
        assert before.dtype == after.dtype
