"""Tier-1 gate: every emitted sqlite script agrees with the in-process run.

Each registry dataset and each golden scenario is cleaned once, its plan is
emitted twice — ``ReproDialect`` (replayed through the in-process executor)
and ``SqliteDialect`` (run through stdlib ``sqlite3``) — and every cell of
the final tables must agree under ``strict_differs``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import CocoonCleaner
from repro.core.context import ROW_ID_COLUMN
from repro.core.plan import CleaningPlan, PlanStep, extract_plan
from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.datasets.registry import dataset_names, load_dataset
from repro.scenarios.catalog import builtin_specs
from repro.sql.differential import (
    DifferentialResult,
    compare_tables,
    run_dataset,
    run_plan_in_process,
    run_plan_sqlite,
    run_scenario,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def assert_clean(result):
    detail = "\n".join(
        f"  row={m.row_id} col={m.column}: in_process={m.in_process!r} "
        f"sqlite={m.sqlite!r} ({m.note})"
        for m in result.mismatches[:10]
    )
    assert result.ok, (
        f"{result.kind} {result.name}: {len(result.mismatches)} cell mismatches "
        f"across {result.cells_compared} cells\n{detail}"
    )
    assert result.cells_compared > 0


@pytest.mark.parametrize("name", dataset_names())
def test_dataset_differential(name):
    assert_clean(run_dataset(name, seed=0, scale=0.05))


@pytest.mark.parametrize("name", sorted(builtin_specs()))
def test_scenario_differential(name):
    assert_clean(run_scenario(name))


# A keep-best order column mixing numbers and text: sqlite must order the
# numbers as numbers (before text), as the in-process engine does, so the
# loaded column keeps each cell's storage class.
MIXED_ORDER_CASES = [
    ([9, "10"], [1]),
    (["10", 9], [0]),
    ([2.5, "a", 3], [1]),
    ([100, "2", None, 7.5], [1]),
]


@pytest.mark.parametrize("order_values, kept", MIXED_ORDER_CASES)
def test_mixed_number_and_text_order_column(order_values, kept):
    n = len(order_values)
    dirty = Table.from_dict("base", {ROW_ID_COLUMN: list(range(n)), "k": ["k"] * n, "o": order_values})
    step = PlanStep("unique", "uniqueness", "k", "base_unique", {"column": "k", "order_column": "o"})
    plan = CleaningPlan(base_table="base", column_names=["k", "o"], steps=[step])
    reference = run_plan_in_process(plan, dirty)
    sqlite_rows = run_plan_sqlite(plan, dirty)
    assert reference.column(ROW_ID_COLUMN).values == kept
    assert [row[ROW_ID_COLUMN] for row in sqlite_rows] == kept
    result = DifferentialResult("mixed", "dataset", rows=n, columns=2, steps=1)
    compare_tables(reference, sqlite_rows, result)
    assert_clean(result)


def test_plan_replay_over_resampled_rows():
    # A hospital@0.05 plan, primed on 50 dirty rows, replayed over 2,000 rows
    # cycled from them (each row 40 times): both engines must apply every
    # step alike on a table 40 times the size the plan was made on.
    dataset = load_dataset("hospital", seed=0, scale=0.05)
    plan = extract_plan(CocoonCleaner().clean(dataset.dirty))
    dirty = dataset.dirty
    ids = list(range(2000))
    resampled = Table(
        plan.base_table,
        [Column(ROW_ID_COLUMN, ids, dtype=ColumnType.INTEGER)]
        + [Column(c.name, [c.values[i % dirty.num_rows] for i in ids], dtype=c.dtype) for c in dirty.columns],
    )
    reference = run_plan_in_process(plan, resampled)
    sqlite_rows = run_plan_sqlite(plan, resampled)
    result = DifferentialResult(
        "hospital-2000rows", "dataset", rows=len(ids), columns=resampled.num_columns, steps=len(plan.steps)
    )
    compare_tables(reference, sqlite_rows, result)
    assert_clean(result)
    assert result.cells_compared == len(ids) * dirty.num_columns


def test_cli_reports_success():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.sql.differential",
         "--datasets", "beers", "--scenarios", "--json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert [r["name"] for r in payload["results"]] == ["beers"]
    assert all(r["ok"] and r["mismatches"] == [] for r in payload["results"])
