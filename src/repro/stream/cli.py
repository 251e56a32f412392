"""Command-line entry point: stream-clean a CSV file or tail a directory.

Usage::

    # Stream one CSV in micro-batches of 200 rows
    python -m repro.stream data/events.csv --batch-rows 200 --out cleaned/

    # Tail a landing directory: process existing *.csv, then poll for more
    python -m repro.stream landing/ --follow --poll 2 --out cleaned/

The first batch primes the cleaning plan (LLM calls happen once); every
later batch replays it with zero LLM calls until drift re-prompts the
drifted columns.  Per batch the CLI prints one status line and, with
``--out``, writes the emitted rows as ``batch_NNNN.csv``; at the end it
writes the cumulative cleaned table (``<name>_cleaned.csv``) and a
``stream_stats.json`` with the cumulative accounting and last drift
assessment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple

from repro.dataframe.io import write_csv
from repro.dataframe.table import Table
from repro.stream.drift import DriftConfig
from repro.stream.engine import StreamBatchResult, StreamingCleaner
from repro.stream.source import DirectoryTailer, iter_csv_batches


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Incrementally clean a CSV stream with cached-plan replay.",
    )
    parser.add_argument("path", help="A CSV file to stream, or a directory to tail for *.csv files")
    parser.add_argument("--batch-rows", type=int, default=500,
                        help="Micro-batch size in rows (default: 500)")
    parser.add_argument("--prime-rows", type=int, default=0,
                        help="Buffer this many rows before priming the cleaning plan "
                             "(0 = prime on the first batch). Pick it large enough to be "
                             "statistically representative of the stream.")
    parser.add_argument("--out", default=None,
                        help="Directory for per-batch and cumulative cleaned CSVs")
    parser.add_argument("--name", default=None,
                        help="Stream name (default: file/directory stem)")
    parser.add_argument("--no-drift", action="store_true",
                        help="Disable drift detection: replay the primed plan forever")
    parser.add_argument("--drift-threshold", type=float, default=DriftConfig.threshold,
                        help="Profile-distance threshold for re-prompting a column "
                             f"(default: {DriftConfig.threshold})")
    parser.add_argument("--follow", action="store_true",
                        help="Directory mode: keep polling for new files (default: one scan)")
    parser.add_argument("--poll", type=float, default=1.0,
                        help="Directory mode: seconds between polls (default: 1)")
    parser.add_argument("--max-files", type=int, default=None,
                        help="Directory mode: stop after this many files")
    parser.add_argument("--idle-polls", type=int, default=None,
                        help="Directory mode with --follow: stop after N empty polls")
    parser.add_argument("--pattern", default="*.csv",
                        help="Directory mode: glob of files to ingest (default: *.csv)")
    parser.add_argument("--quiet", action="store_true", help="Suppress per-batch lines")
    return parser


def _batches(args: argparse.Namespace, path: Path) -> Tuple[str, Iterator[Table]]:
    """Resolve the input path to a stream name and a batch iterator."""
    if path.is_file():
        name = args.name or path.stem
        return name, iter_csv_batches(path, args.batch_rows, name=name)
    if path.is_dir():
        name = args.name or (path.name or "stream")

        def generate() -> Iterator[Table]:
            tailer = DirectoryTailer(path, pattern=args.pattern)
            if args.follow:
                files: Iterator[Path] = tailer.follow(
                    poll_seconds=args.poll,
                    max_files=args.max_files,
                    idle_polls=args.idle_polls,
                )
            else:
                found = tailer.poll()
                files = iter(found[: args.max_files] if args.max_files else found)
            for file_path in files:
                for batch in iter_csv_batches(file_path, args.batch_rows, name=name):
                    yield batch

        return name, generate()
    raise FileNotFoundError(path)


def _batch_line(result: StreamBatchResult) -> str:
    if result.primed:
        mode = "prime"
    elif result.replayed:
        mode = "replay"
    elif result.buffered:
        mode = "buffer"
    else:
        mode = "replan"
    drift = f" drift={','.join(result.drifted_columns)}" if result.drifted_columns else ""
    return (
        f"[batch {result.batch_index}] {mode}: rows={result.rows_in} "
        f"added={len(result.added)} dropped={len(result.dropped_row_ids)} "
        f"retracted={len(result.retracted_row_ids)} llm_calls={result.llm_calls} "
        f"emitted_total={result.cumulative_rows_emitted} {result.seconds:.3f}s{drift}"
    )


def _emitted_table(stream: StreamingCleaner, result: StreamBatchResult) -> Table:
    names = [name for name, _ in stream._schema] if stream._schema else []
    return Table.from_rows(
        f"{stream.name}_batch{result.batch_index}",
        ["_row_id"] + names,
        [[row_id] + list(row) for row_id, row in result.added],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.batch_rows < 1:
        print(f"error: --batch-rows must be >= 1, got {args.batch_rows}", file=sys.stderr)
        return 2
    if args.prime_rows < 0:
        print(f"error: --prime-rows must be >= 0, got {args.prime_rows}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.poll) and args.poll > 0):
        print(f"error: --poll must be a finite number > 0, got {args.poll}", file=sys.stderr)
        return 2
    for flag, value in (("--max-files", args.max_files), ("--idle-polls", args.idle_polls)):
        if value is not None and value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    try:
        drift_config = DriftConfig(args.drift_threshold)
    except ValueError as exc:
        print(f"error: --drift-threshold: {exc}", file=sys.stderr)
        return 2
    path = Path(args.path)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    name, batches = _batches(args, path)
    stream = StreamingCleaner(
        name=name,
        detect_drift=not args.no_drift,
        drift_config=drift_config,
        prime_rows=args.prime_rows,
    )

    interrupted = False
    last: Optional[StreamBatchResult] = None
    try:
        for batch in batches:
            last = stream.process_batch(batch)
            if not args.quiet:
                print(_batch_line(last))
            if out_dir is not None:
                write_csv(
                    _emitted_table(stream, last),
                    out_dir / f"batch_{last.batch_index:04d}.csv",
                )
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        interrupted = True
        print("interrupted; finalising cumulative output", file=sys.stderr)

    stats = stream.stats.to_dict()
    stats["last_drift"] = [d.to_dict() for d in last.drift] if last else []
    if out_dir is not None:
        write_csv(stream.cleaned_table(), out_dir / f"{name}_cleaned.csv")
        (out_dir / "stream_stats.json").write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if not args.quiet:
        print(json.dumps(stats, indent=2, sort_keys=True))
    return 130 if interrupted else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
