"""Command-line entry point: ``python -m repro.experiments <artifact>``.

Artifacts run through the sequential
:class:`~repro.experiments.matrix.ExperimentMatrix` engine.  ``--out`` writes
the finished run (every cell with its timing) as one JSON document, and
``--golden`` regression-checks the run against the committed
``GOLDEN_experiments.json`` corpus (``--golden --refresh`` rewrites it — the
sanctioned workflow documented in ``docs/benchmarks.md``).

Exit codes: 0 success, 1 golden mismatch or failed cells, 2 bad arguments
(including unknown ``--datasets`` / ``--systems`` names — they are rejected
with the valid choices listed, never silently dropped).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.experiments.figures import ascii_bar_chart, f1_series
from repro.experiments.matrix import (
    ExperimentMatrix,
    MatrixJobError,
    MatrixRun,
    UnknownNameError,
    canonical_json,
    diff_golden,
    load_golden,
    write_golden,
)
from repro.experiments.table1 import format_table1
from repro.experiments.table2 import format_table2
from repro.experiments.table3 import format_table3

#: Which grid tables each CLI artifact needs.
_ARTIFACT_TABLES = {
    "table1": ["table1"],
    "table2": ["table2"],
    "table3": ["table3"],
    "figure-f1": ["table1"],
    "matrix": ["table1", "table2", "table3"],
    "all": ["table1", "table2", "table3"],
}

DEFAULT_GOLDEN_PATH = "GOLDEN_experiments.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation tables on the synthetic benchmarks.",
    )
    parser.add_argument("artifact", choices=sorted(_ARTIFACT_TABLES),
                        help="which artifact to regenerate ('matrix' runs the full grid)")
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale factor (default 1.0 = paper-scale row counts)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed for dataset generation (default 0)")
    parser.add_argument("--datasets", nargs="*", default=None, help="restrict to specific benchmarks")
    parser.add_argument("--systems", nargs="*", default=None, help="restrict to specific systems")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the finished run (every cell with its timing) as JSON")
    parser.add_argument("--golden", action="store_true",
                        help="compare the run against the committed golden corpus (exit 1 on drift)")
    parser.add_argument("--refresh", action="store_true",
                        help="with --golden: rewrite the golden corpus from this run")
    parser.add_argument("--golden-path", default=DEFAULT_GOLDEN_PATH, metavar="PATH",
                        help=f"golden corpus location (default: {DEFAULT_GOLDEN_PATH})")
    return parser


def _print_artifacts(artifact: str, run: MatrixRun) -> None:
    if artifact in ("table1", "all", "matrix"):
        print(format_table1(run.results_for("table1")))
        print()
    if artifact in ("figure-f1", "all"):
        print(ascii_bar_chart(f1_series(run.results_for("table1"))))
        print()
    if artifact in ("table2", "all", "matrix"):
        print(format_table2(run.table2_rows()))
        print()
    if artifact in ("table3", "all", "matrix"):
        print(format_table3(run.results_for("table3")))
        print()
    if artifact == "matrix":
        stats = run.stats
        print(
            f"matrix: {stats.cells_total} cells in {stats.repair_groups} repair groups; "
            f"wall {stats.wall_seconds:.2f}s; {stats.llm_calls} LLM calls"
        )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.refresh and not args.golden:
        parser.error("--refresh only makes sense together with --golden")
    if args.scale is not None and not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be a finite number > 0, got {args.scale}")

    tables = _ARTIFACT_TABLES[args.artifact]
    seed = args.seed if args.seed is not None else 0
    scale = args.scale if args.scale is not None else 1.0
    datasets, systems = args.datasets, args.systems
    if args.golden and not args.refresh:
        # Regression mode runs exactly the grid the corpus was recorded at;
        # explicit restrictions would silently check something else, so they
        # are rejected rather than ignored.
        overridden = [
            flag for flag, value in (
                ("--scale", args.scale), ("--seed", args.seed),
                ("--datasets", args.datasets), ("--systems", args.systems),
            ) if value is not None
        ]
        if overridden:
            parser.error(
                f"{', '.join(overridden)} cannot be combined with a --golden check: "
                "the corpus pins its own config (use --golden --refresh to re-pin)"
            )
        try:
            golden = load_golden(args.golden_path)
        except FileNotFoundError:
            print(f"golden corpus not found at {args.golden_path!r}; "
                  f"create it with --golden --refresh", file=sys.stderr)
            return 2
        config = golden.get("config", {})
        tables = config.get("tables", tables)
        datasets = config.get("datasets")
        systems = config.get("systems")
        seed = config.get("seed", seed)
        scale = config.get("scale", scale)

    try:
        matrix = ExperimentMatrix(
            tables=tables,
            datasets=datasets,
            systems=systems,
            seed=seed,
            scale=scale,
        )
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        run = matrix.run()
    except MatrixJobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        Path(args.out).write_text(canonical_json(run.results_document()), encoding="utf-8")

    if args.golden and args.refresh:
        write_golden(args.golden_path, run)
        print(f"golden corpus refreshed: {args.golden_path} "
              f"({len(run.cells)} cells at seed={seed}, scale={scale:g})")
        return 0
    if args.golden:
        differences = diff_golden(golden, run.golden_payload())
        if differences:
            print(f"golden corpus drift detected ({len(differences)} difference(s)):")
            for line in differences:
                print(f"  {line}")
            return 1
        print(f"golden corpus check passed: {len(run.cells)} cells match {args.golden_path}")
        if canonical_json(run.golden_payload()) != canonical_json(golden):
            # Belt and braces: the structured diff missed a byte-level change.
            print("warning: payloads differ at the byte level despite matching fields", file=sys.stderr)
            return 1
        return 0

    _print_artifacts(args.artifact, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
