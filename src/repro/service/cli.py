"""Command-line entry point: clean a directory of CSV files concurrently.

Usage::

    python -m repro.service --input-dir data/ --output-dir cleaned/ --workers 4

Every ``*.csv`` in the input directory becomes one cleaning job.  Cleaned
tables are written next to per-table SQL pipelines and HTML reports, and a
service summary (throughput, latency, cache hit rate) is printed at the end.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.report import write_report
from repro.dataframe.io import write_csv
from repro.service.jobs import render_service_summary
from repro.service.scheduler import CleaningService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Clean every CSV file in a directory concurrently with Cocoon.",
    )
    parser.add_argument("--input-dir", required=True, help="Directory containing *.csv files to clean")
    parser.add_argument("--output-dir", required=True, help="Directory for cleaned CSVs and reports")
    parser.add_argument("--workers", type=int, default=4, help="Worker threads (default: 4)")
    parser.add_argument(
        "--cache",
        default=None,
        help="Path of a persistent JSON prompt cache shared by all jobs",
    )
    parser.add_argument(
        "--flush-every",
        type=int,
        default=32,
        help="Persist the prompt cache after every N new entries (default: 32)",
    )
    parser.add_argument(
        "--no-reports",
        action="store_true",
        help="Write only cleaned CSVs, skipping the HTML/SQL reports",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    input_dir = Path(args.input_dir)
    output_dir = Path(args.output_dir)
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.flush_every < 1:
        print(f"error: --flush-every must be >= 1, got {args.flush_every}", file=sys.stderr)
        return 2
    if not input_dir.is_dir():
        print(f"error: input directory {input_dir} does not exist", file=sys.stderr)
        return 2
    csv_paths: List[Path] = sorted(input_dir.glob("*.csv"))
    if not csv_paths:
        print(f"error: no *.csv files found in {input_dir}", file=sys.stderr)
        return 2
    output_dir.mkdir(parents=True, exist_ok=True)

    service = CleaningService(
        workers=args.workers,
        cache_path=args.cache,
        cache_flush_every=args.flush_every,
    )
    with service:
        jobs = [service.submit_csv(path) for path in csv_paths]
        results = [job.wait() for job in jobs]

        failures = 0
        for path, result in zip(csv_paths, results):
            print(result.summary())
            if not result.ok or result.cleaning_result is None:
                failures += 1
                continue
            cleaned = result.cleaning_result.cleaned_table
            write_csv(cleaned, output_dir / f"{path.stem}_cleaned.csv")
            if not args.no_reports:
                write_report(result.cleaning_result, output_dir)
        print()
        print(render_service_summary(jobs, service.cache.stats()))
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
