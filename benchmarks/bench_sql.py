"""SQL benchmark: compiled expression closures vs reference closures.

Single-table scan+WHERE, GROUP BY aggregate and window+QUALIFY queries at
10k/100k rows run through the executor's one stage pipeline twice: with
specialised compiled closures (``Executor(compiled=True)``, the default)
and with every expression compiled to its reference-interpreter closure
(``compiled=False``).  Outputs must be identical cell-for-cell.  Results go
to ``BENCH_sql.json`` in the schema described in ``docs/benchmarks.md``.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_sql.py             # full, ~a minute
    PYTHONPATH=src python benchmarks/bench_sql.py --smoke     # seconds, CI
"""

from __future__ import annotations

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import benchlib

from repro.dataframe.table import Table
from repro.sql import Database


def make_table(name: str, rows: int, rng: random.Random, key_space: int) -> Table:
    """A synthetic fact table: integer key plus two payload columns."""
    return Table.from_dict(
        name,
        {
            "k": [rng.randrange(key_space) for _ in range(rows)],
            "grp": [rng.choice("abcde") for _ in range(rows)],
            "val": [rng.randrange(1000) for _ in range(rows)],
        },
    )


def run_query(tables, query: str, compiled: bool) -> Table:
    db = Database(compiled=compiled)
    for table in tables:
        db.register(table)
    return db.sql(query)


# (name, rows, query, reference_repeats_full) — the baseline compiles every
# expression to its reference-interpreter closure; the optimised side uses
# the specialised compiled closures.
CASES = [
    (
        "scan_filter",
        10000,
        "SELECT k, val FROM t WHERE grp = 'a' AND val < 500",
        3,
    ),
    (
        "scan_filter",
        100000,
        "SELECT k, val FROM t WHERE grp = 'a' AND val < 500",
        1,
    ),
    (
        "group_aggregate",
        10000,
        "SELECT grp, COUNT(*) AS n, SUM(val) AS total, AVG(val) AS mean FROM t GROUP BY grp",
        3,
    ),
    (
        "group_aggregate",
        100000,
        "SELECT grp, COUNT(*) AS n, SUM(val) AS total, AVG(val) AS mean FROM t GROUP BY grp",
        1,
    ),
    (
        "window_qualify",
        10000,
        "SELECT k, grp, val FROM t "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) <= 3",
        3,
    ),
    (
        "window_qualify",
        100000,
        "SELECT k, grp, val FROM t "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) <= 3",
        1,
    ),
]

SMOKE_ROWS = 300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_sql.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats for fast measurements")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"cap all inputs at {SMOKE_ROWS} rows so the whole run takes seconds (CI)",
    )
    args = parser.parse_args(argv)

    cases = []
    ok = True
    for name, rows, query, reference_repeats in CASES:
        if args.smoke:
            rows = min(rows, SMOKE_ROWS)
            reference_repeats = 1
        rng = random.Random(args.seed)
        tables = [make_table("t", rows, rng, key_space=rows)]

        compiled_result = run_query(tables, query, compiled=True)
        reference_result = run_query(tables, query, compiled=False)
        parity = compiled_result.to_dict() == reference_result.to_dict()
        ok = ok and parity

        compiled_seconds = benchlib.measure(
            lambda: run_query(tables, query, compiled=True), args.repeats
        )
        reference_seconds = benchlib.measure(
            lambda: run_query(tables, query, compiled=False), reference_repeats
        )
        cases.append(
            benchlib.case_result(
                f"{name}_{rows}",
                {"rows": rows, "query": query},
                reference_seconds,
                compiled_seconds,
                output_rows=compiled_result.num_rows,
                parity=parity,
            )
        )

    report = benchlib.write_report(
        args.out,
        "sql_compiled",
        {"smoke": args.smoke, "repeats": args.repeats, "seed": args.seed},
        cases,
    )
    benchlib.print_cases(report)
    if not ok:
        print("ERROR: compiled and reference closures disagreed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
