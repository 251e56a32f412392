"""Differential testing: emitted cleaning scripts vs the in-process engine.

The paper's output artifact is a reusable SQL script; the dialect layer
(:mod:`repro.core.dialects`) claims that script can run on an external
engine.  This module *proves* it, per dataset and per scenario:

1. clean the dirty table in-process (simulated LLM, deterministic) and
   extract the replayable :class:`~repro.core.plan.CleaningPlan`;
2. re-run ``plan.emit(ReproDialect())`` through a fresh in-process database
   and check it reproduces the pipeline's cleaned table exactly — the plan
   really is the whole cleaning run;
3. run ``plan.emit(SqliteDialect())`` through stdlib ``sqlite3`` and compare
   the final table cell-by-cell under
   :func:`~repro.datasets.base.strict_differs`, keyed by the hidden row-id
   column so row removals must agree too.

Representation differences that are storage artefacts, not semantic
divergences, are normalised before comparison: sqlite has no boolean or
date storage classes, so when the in-process cell is a bool/date/datetime
the sqlite cell is first pulled through the same
:func:`~repro.dataframe.schema.coerce_value` the engine itself uses.
Everything else must match textually — a ``'120'`` vs ``120.0`` difference
is reported, because downstream consumers would see it.

Run it from the command line::

    python -m repro.sql.differential                 # everything
    python -m repro.sql.differential --datasets beers --scenarios typo-storm

Exit status 1 on any mismatch; ``--json`` dumps the full report.  The same
checks are a tier-1 test (``tests/sql/test_differential.py``) and a CI job.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import sqlite3
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.context import ROW_ID_COLUMN, CleaningConfig
from repro.core.dialects import ReproDialect, SqliteDialect
from repro.core.pipeline import CocoonCleaner
from repro.core.plan import CleaningPlan, extract_plan
from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType, coerce_value, is_null
from repro.dataframe.table import Table
from repro.datasets.base import strict_differs
from repro.sql.database import Database

_SQLITE_TYPES = {
    ColumnType.INTEGER: "INTEGER",
    ColumnType.DOUBLE: "REAL",
    ColumnType.BOOLEAN: "INTEGER",
}


@dataclass(frozen=True)
class CellMismatch:
    """One cell (or row) where the two engines disagree."""

    row_id: Optional[int]
    column: str
    in_process: Any
    sqlite: Any
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "row_id": self.row_id,
            "column": self.column,
            "in_process": None if is_null(self.in_process) else str(self.in_process),
            "sqlite": None if is_null(self.sqlite) else str(self.sqlite),
            "note": self.note,
        }


@dataclass
class DifferentialResult:
    """Outcome of one dataset's / scenario's differential run."""

    name: str
    kind: str                      # "dataset" | "scenario"
    rows: int
    columns: int
    steps: int
    cells_compared: int = 0
    mismatches: List[CellMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "rows": self.rows,
            "columns": self.columns,
            "steps": self.steps,
            "cells_compared": self.cells_compared,
            "ok": self.ok,
            "mismatches": [m.to_dict() for m in self.mismatches[:50]],
            "mismatch_count": len(self.mismatches),
        }


# --------------------------------------------------------------------------
# engines
# --------------------------------------------------------------------------
def _with_row_ids(table: Table, name: str) -> Table:
    if ROW_ID_COLUMN in table.column_names:
        return table.rename(name)
    ids = Column(ROW_ID_COLUMN, list(range(table.num_rows)), ColumnType.INTEGER)
    return Table(name, [ids] + list(table.columns))


def run_plan_in_process(plan: CleaningPlan, dirty_with_ids: Table) -> Table:
    """Execute ``plan.emit(ReproDialect())`` on a fresh in-process database."""
    db = Database()
    db.register(dirty_with_ids.rename(plan.base_table), replace=True)
    db.execute_script(plan.emit(ReproDialect()))
    return db.table(plan.final_table())


def run_plan_sqlite(plan: CleaningPlan, dirty_with_ids: Table) -> List[Dict[str, Any]]:
    """Execute ``plan.emit(SqliteDialect())`` on stdlib sqlite3.

    Returns the final table's rows as dicts.  The dirty data is loaded with
    typed columns so sqlite's storage classes mirror the in-process column
    types (bools as 0/1, dates as ISO text — sqlite has no richer classes).
    A column whose values mix numbers and text is declared with no type
    (BLOB affinity), so each cell keeps its storage class as it does in
    process; TEXT affinity would turn its numbers into text.
    """
    dialect = SqliteDialect()
    connection = sqlite3.connect(":memory:")
    try:
        column_defs = ", ".join(
            f"{dialect.quote_identifier(col.name)} {_sqlite_type(col)}".rstrip()
            for col in dirty_with_ids.columns
        )
        table_sql = dialect.quote_identifier(plan.base_table)
        connection.execute(f"CREATE TABLE {table_sql} ({column_defs})")
        placeholders = ", ".join("?" for _ in dirty_with_ids.columns)
        connection.executemany(
            f"INSERT INTO {table_sql} VALUES ({placeholders})",
            (
                tuple(_bind_value(v) for v in row)
                for row in zip(*(col.values for col in dirty_with_ids.columns))
            ),
        )
        connection.executescript(plan.emit(dialect))
        final = dialect.quote_identifier(plan.final_table())
        cursor = connection.execute(f"SELECT * FROM {final}")
        names = [d[0] for d in cursor.description]
        return [dict(zip(names, row)) for row in cursor.fetchall()]
    finally:
        connection.close()


def _sqlite_type(column: Column) -> str:
    """The declared sqlite type of a loaded column; empty for mixed numbers and text."""
    declared = _SQLITE_TYPES.get(column.dtype, "TEXT")
    values = column.values
    if declared == "TEXT" and str in map(type, values):
        if any(type(v) in (int, float) and v == v for v in values):
            return ""
    return declared


def _bind_value(value: Any) -> Any:
    if is_null(value):
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (_dt.date, _dt.datetime)):
        return str(value)
    return value


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------
def _cells_equal(in_process: Any, from_sqlite: Any) -> bool:
    """``strict_differs`` with sqlite's storage-class gaps normalised away.

    Only the representations sqlite *cannot* express are coerced (booleans,
    dates, timestamps), and only when the in-process side actually holds one
    — so a genuine value divergence is never masked by the normalisation.
    """
    if isinstance(in_process, bool):
        from_sqlite = coerce_value(from_sqlite, ColumnType.BOOLEAN)
    elif isinstance(in_process, _dt.datetime):
        from_sqlite = coerce_value(from_sqlite, ColumnType.TIMESTAMP)
    elif isinstance(in_process, _dt.date):
        from_sqlite = coerce_value(from_sqlite, ColumnType.DATE)
    return not strict_differs(in_process, from_sqlite)


def compare_tables(
    reference: Table, sqlite_rows: List[Dict[str, Any]], result: DifferentialResult
) -> None:
    """Cell-by-cell comparison keyed by the hidden row id, into ``result``."""
    columns = [c for c in reference.column_names if c != ROW_ID_COLUMN]
    ref_by_id: Dict[Any, Dict[str, Any]] = {}
    id_values = reference.column(ROW_ID_COLUMN).values
    for i, row_id in enumerate(id_values):
        ref_by_id[row_id] = {c: reference.column(c).values[i] for c in columns}
    sqlite_by_id = {row.get(ROW_ID_COLUMN): row for row in sqlite_rows}

    for row_id in sorted(set(ref_by_id) - set(sqlite_by_id)):
        result.mismatches.append(
            CellMismatch(row_id, "*", "row present", "row missing", "sqlite removed this row")
        )
    for row_id in sorted(set(sqlite_by_id) - set(ref_by_id)):
        result.mismatches.append(
            CellMismatch(row_id, "*", "row missing", "row present", "sqlite kept this row")
        )
    for row_id, ref_row in ref_by_id.items():
        sq_row = sqlite_by_id.get(row_id)
        if sq_row is None:
            continue
        for column in columns:
            result.cells_compared += 1
            a, b = ref_row[column], sq_row.get(column)
            if not _cells_equal(a, b):
                result.mismatches.append(CellMismatch(row_id, column, a, b))


# --------------------------------------------------------------------------
# drivers
# --------------------------------------------------------------------------
def run_differential(
    dirty: Table, name: str, kind: str, config: Optional[CleaningConfig] = None
) -> DifferentialResult:
    """Full differential for one dirty table: clean, emit, run on both engines."""
    cleaner = CocoonCleaner(config=config)
    cleaning = cleaner.clean(dirty)
    plan = extract_plan(cleaning)
    result = DifferentialResult(
        name=name,
        kind=kind,
        rows=dirty.num_rows,
        columns=len(plan.column_names),
        steps=len(plan.steps),
    )

    dirty_with_ids = _with_row_ids(dirty, plan.base_table)
    reference = run_plan_in_process(plan, dirty_with_ids)

    # Gate 1: the emitted repro-dialect script IS the cleaning run.
    pipeline_clean = cleaning.cleaned_table
    replayed_clean = reference.drop([ROW_ID_COLUMN])
    for column in pipeline_clean.column_names:
        ref_values = replayed_clean.column(column).values
        for i, expected in enumerate(pipeline_clean.column(column).values):
            if strict_differs(expected, ref_values[i]):
                result.mismatches.append(
                    CellMismatch(
                        None,
                        column,
                        expected,
                        ref_values[i],
                        "plan.emit(ReproDialect()) diverged from the pipeline itself",
                    )
                )
    if result.mismatches:
        return result

    # Gate 2: the sqlite script agrees with the in-process engine.
    sqlite_rows = run_plan_sqlite(plan, dirty_with_ids)
    compare_tables(reference, sqlite_rows, result)
    return result


def run_dataset(name: str, seed: int = 0, scale: float = 0.05) -> DifferentialResult:
    """Differential over one registry dataset's dirty table."""
    from repro.datasets.registry import load_dataset

    dataset = load_dataset(name, seed=seed, scale=scale)
    return run_differential(dataset.dirty, name, "dataset")


def run_scenario(name: str) -> DifferentialResult:
    """Differential over one golden scenario's generated dirty table."""
    from repro.scenarios.catalog import builtin_specs
    from repro.scenarios.spec import generate

    generated = generate(builtin_specs()[name])
    issues = generated.spec.cleaning_issues
    config = CleaningConfig(enabled_issues=list(issues)) if issues is not None else None
    return run_differential(generated.dataset.dirty, name, "scenario", config=config)


def run_all(
    datasets: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    scale: float = 0.05,
) -> List[DifferentialResult]:
    """Run the differential over registry datasets and golden scenarios."""
    from repro.datasets.registry import dataset_names
    from repro.scenarios.catalog import builtin_specs

    results: List[DifferentialResult] = []
    for name in datasets if datasets is not None else dataset_names():
        results.append(run_dataset(name, seed=seed, scale=scale))
    for name in scenarios if scenarios is not None else sorted(builtin_specs()):
        results.append(run_scenario(name))
    return results


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sql.differential",
        description="Run emitted cleaning scripts on sqlite3 and diff against the in-process engine.",
    )
    parser.add_argument("--datasets", nargs="*", default=None, help="registry dataset names (default: all)")
    parser.add_argument("--scenarios", nargs="*", default=None, help="golden scenario names (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--json", action="store_true", help="emit a JSON report to stdout")
    args = parser.parse_args(argv)

    results = run_all(args.datasets, args.scenarios, seed=args.seed, scale=args.scale)
    if args.json:
        print(json.dumps({"results": [r.to_dict() for r in results]}, indent=2, sort_keys=True))
    else:
        for r in results:
            status = "ok" if r.ok else f"FAIL ({len(r.mismatches)} mismatches)"
            print(
                f"{r.kind:>8}  {r.name:<24} rows={r.rows:<6} steps={r.steps:<3} "
                f"cells={r.cells_compared:<8} {status}"
            )
            for m in r.mismatches[:10]:
                print(f"          row={m.row_id} col={m.column}: {m.in_process!r} != {m.sqlite!r} {m.note}")
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"{len(failed)}/{len(results)} differentials failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} differentials agree", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
