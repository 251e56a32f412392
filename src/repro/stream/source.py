"""Micro-batch sources: slice tables, stream CSV files, tail directories.

Three ways data arrives at a :class:`~repro.stream.engine.StreamingCleaner`:

* :func:`iter_table_batches` — partition an in-memory table into contiguous
  micro-batches (tests, benchmarks, backfills);
* :func:`iter_csv_batches` — read a CSV file into schema-stable batches
  without materialising the whole file as one table first;
* :class:`DirectoryTailer` — poll a directory for new CSV files (the
  "landing zone" integration pattern), yielding each new file as one or
  more batches.  Files are processed in sorted-name order and never twice.
"""

from __future__ import annotations

import csv
import random
import time
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table


def iter_table_batches(table: Table, batch_rows: int) -> Iterator[Table]:
    """Contiguous micro-batches of at most ``batch_rows`` rows, in row order."""
    if batch_rows < 1:
        raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
    for start in range(0, table.num_rows, batch_rows):
        yield table.take(list(range(start, min(start + batch_rows, table.num_rows))))
    if table.num_rows == 0:
        yield table


def partition_table(table: Table, bounds: Sequence[int]) -> List[Table]:
    """Split a table at explicit row offsets (used by the parity tests).

    ``bounds`` are cut points: ``partition_table(t, [10, 30])`` yields rows
    ``[0, 10)``, ``[10, 30)``, ``[30, len)``.
    """
    cuts = [0] + sorted(bounds) + [table.num_rows]
    if cuts != sorted(cuts) or any(c < 0 or c > table.num_rows for c in cuts):
        raise ValueError(f"Invalid partition bounds {list(bounds)} for {table.num_rows} rows")
    return [table.take(list(range(a, b))) for a, b in zip(cuts, cuts[1:])]


def steady_state_stream(
    backfill: Table, traffic_batches: int, batch_rows: int, seed: int = 0
) -> Tuple[Table, int]:
    """Build a steady-state stream: a backfill followed by replayed traffic.

    Returns ``(whole, prime_rows)``: ``whole`` is the backfill table with
    ``traffic_batches × batch_rows`` extra rows sampled (seeded, with
    replacement) from the backfill's own row pool — ongoing traffic drawn
    from the distribution already observed, the regime where cached-plan
    replay is exact.  ``prime_rows`` covers the backfill plus the first
    traffic batch, so the priming window sees both the full dirty-value
    vocabulary and the cross-batch duplicates the traffic introduces.

    Used by the streaming parity tests.
    """
    rng = random.Random(seed)
    rows = backfill.row_tuples()
    if not rows:
        raise ValueError("backfill table has no rows to sample traffic from")
    extra = [list(rows[rng.randrange(len(rows))]) for _ in range(traffic_batches * batch_rows)]
    return backfill.append_rows(extra), backfill.num_rows + batch_rows


def iter_csv_batches(
    path: Union[str, Path],
    batch_rows: int,
    name: Optional[str] = None,
    null_tokens: Sequence[str] = ("",),
) -> Iterator[Table]:
    """Stream a CSV file as VARCHAR micro-batches of at most ``batch_rows`` rows.

    Values are kept as text (the cleaning pipeline owns type decisions, as
    in :meth:`~repro.core.pipeline.CocoonCleaner.clean_csv`); tokens in
    ``null_tokens`` become NULL.  The file is read row-group by row-group,
    so arbitrarily large files stream in bounded memory.  Ragged rows follow
    the same convention as :func:`repro.dataframe.io.read_csv_text`: short
    rows are padded with NULL, cells beyond the header width are dropped.
    """
    if batch_rows < 1:
        raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
    path = Path(path)
    table_name = name if name is not None else path.stem
    nulls = set(null_tokens)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            yield Table(table_name, [])
            return
        pending: List[List[Optional[str]]] = []
        emitted = False
        for row in reader:
            padded = [row[i] if i < len(row) else "" for i in range(len(header))]
            pending.append([None if value in nulls else value for value in padded])
            if len(pending) >= batch_rows:
                yield _rows_to_table(table_name, header, pending)
                pending = []
                emitted = True
        if pending or not emitted:
            yield _rows_to_table(table_name, header, pending)


def _rows_to_table(name: str, header: Sequence[str], rows: List[List[Optional[str]]]) -> Table:
    columns = [
        Column(col, [row[i] for row in rows], ColumnType.VARCHAR)
        for i, col in enumerate(header)
    ]
    return Table(name, columns)


class DirectoryTailer:
    """Incremental scanner for CSV files landing in a directory.

    ``poll()`` returns the paths that appeared since the last poll, in
    sorted-name order; ``follow()`` turns that into a blocking generator.
    Only file *names* are tracked, so a rewritten file is not reprocessed —
    landing zones should write-once (e.g. upload under a temp name and
    rename into place).
    """

    def __init__(self, directory: Union[str, Path], pattern: str = "*.csv"):
        self.directory = Path(directory)
        self.pattern = pattern
        self._seen: Set[str] = set()
        # Files poll() reported but follow() has not yielded yet (a max_files
        # cut can stop mid-list; they must surface on the next call).
        self._pending: List[Path] = []

    def poll(self) -> List[Path]:
        """New matching files since the last call, oldest name first."""
        if not self.directory.is_dir():
            raise FileNotFoundError(f"{self.directory} is not a directory")
        fresh = sorted(
            p for p in self.directory.glob(self.pattern) if p.name not in self._seen
        )
        for path in fresh:
            self._seen.add(path.name)
        return fresh

    def follow(
        self,
        poll_seconds: float = 1.0,
        max_files: Optional[int] = None,
        idle_polls: Optional[int] = None,
    ) -> Iterator[Path]:
        """Yield new files as they land.

        Stops after ``max_files`` files, or after ``idle_polls`` consecutive
        empty polls (both None = run until interrupted).
        """
        yielded = 0
        idle = 0
        while True:
            self._pending.extend(self.poll())
            if self._pending:
                idle = 0
                while self._pending:
                    yield self._pending.pop(0)
                    yielded += 1
                    if max_files is not None and yielded >= max_files:
                        return
            else:
                idle += 1
                if idle_polls is not None and idle >= idle_polls:
                    return
                time.sleep(poll_seconds)
