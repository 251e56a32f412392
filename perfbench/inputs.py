"""Seeded input generators for the four workloads.

Every generator is a pure function of its seed: the same seed gives the same
tables, byte for byte.  The program under test only ever sees the generated
tables, never the seed.

* :func:`permuted_dataset` — a paper-scale registry table (generator seed 0)
  with its rows permuted by the workload seed.  Generating the table itself
  from the seed would swing repair F1 on ``hospital`` between 0.42 and 0.96
  from seed to seed; a permutation keeps the records (and F1) fixed while
  every seed still feeds the cleaner a different row order and row-id layout.
* :func:`upsert_stream` — a change-data-capture stream: a backfill plus
  small micro-batches whose rows re-send registry rows under a ``record_id``
  key, a share of them updating an earlier id, stamped with a monotone
  ``updated_at``.
* :func:`job_list` — the served job mix: small registry tables over several
  generator seeds, each table submitted twice in a row (cold, then warm).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import List, Tuple

from repro.dataframe.column import Column
from repro.dataframe.io import to_csv_text
from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.datasets import load_dataset

#: Registry tables the served job mix draws from.  ``movies`` is left out: one
#: table that is several times slower than the rest would set every percentile.
JOB_DATASETS = ("hospital", "flights", "beers", "rayyan")
JOB_SCALE = 0.02

#: The CDC stream: registry table and scale whose dirty rows it re-sends.
STREAM_DATASET = "flights"
STREAM_SCALE = 0.1
STREAM_BATCH_ROWS = 10
#: Share of backfill rows that re-send an earlier backfill id, so ``record_id``
#: is >= 95% but < 100% unique in the priming window (a key candidate).
BACKFILL_UPDATE_SHARE = 0.03
#: Share of traffic rows that update an earlier id instead of adding one.
TRAFFIC_UPDATE_SHARE = 0.10
_EPOCH = datetime(2024, 1, 1)


def permuted_dataset(name: str, seed: int, scale: float = 1.0) -> Tuple[Table, Table]:
    """``(dirty, clean)`` of registry table ``name``, rows permuted by ``seed``."""
    dataset = load_dataset(name, seed=0, scale=scale)
    order = list(range(dataset.dirty.num_rows))
    random.Random(seed).shuffle(order)
    return dataset.dirty.take(order).rename(name), dataset.clean.take(order).rename(name)


@dataclass
class UpsertStream:
    """A generated CDC stream plus the ground truth needed to score it."""

    backfill: Table
    batches: List[Table]
    #: Registry row index behind every stream row, in arrival (row-id) order.
    sources: List[int]
    #: The registry table's dirty and clean versions (data columns only).
    dirty: Table
    clean: Table


def upsert_stream(seed: int, batches: int) -> UpsertStream:
    """A backfill followed by ``batches`` micro-batches of ``STREAM_BATCH_ROWS`` rows.

    Every row re-sends one registry row.  Traffic samples only registry rows
    the backfill already holds, so the value distribution never drifts and
    the primed plan stays exact.  An update re-sends the registry row of an
    earlier id; ``updated_at`` grows by one second per row, so the priming
    run derives ``unique(record_id) ORDER BY updated_at DESC`` (keep the
    latest version) — the keep-best fold every later batch must redo.
    """
    rng = random.Random(seed)
    dataset = load_dataset(STREAM_DATASET, seed=0, scale=STREAM_SCALE)
    base_rows = dataset.dirty.row_tuples()
    # (record id, registry row) per stream row, in arrival order.
    records: List[Tuple[int, int]] = []
    backfill_sources = list(range(len(base_rows)))
    rng.shuffle(backfill_sources)
    records.extend((record_id, source) for record_id, source in enumerate(backfill_sources))
    updates = max(1, int(len(records) * BACKFILL_UPDATE_SHARE))
    for _ in range(updates):
        earlier = records[rng.randrange(len(records) // 2)]
        records.insert(rng.randrange(len(records) // 2, len(records)), earlier)
    next_id = len(base_rows)
    backfill_size = len(records)
    for _ in range(batches * STREAM_BATCH_ROWS):
        if rng.random() < TRAFFIC_UPDATE_SHARE:
            records.append(records[rng.randrange(len(records))])
        else:
            records.append((next_id, rng.randrange(len(base_rows))))
            next_id += 1

    def table(start: int, stop: int) -> Table:
        chunk = records[start:stop]
        stamps = [_EPOCH + timedelta(seconds=i) for i in range(start, stop)]
        columns = [
            Column("record_id", [f"R{record_id:07d}" for record_id, _ in chunk], ColumnType.VARCHAR),
            Column("updated_at", [s.strftime("%Y-%m-%d %H:%M:%S") for s in stamps], ColumnType.VARCHAR),
        ]
        for j, column in enumerate(dataset.dirty.columns):
            columns.append(Column(column.name, [base_rows[s][j] for _, s in chunk], column.dtype))
        return Table("flights_cdc", columns)

    bounds = range(backfill_size, len(records), STREAM_BATCH_ROWS)
    return UpsertStream(
        backfill=table(0, backfill_size),
        batches=[table(b, b + STREAM_BATCH_ROWS) for b in bounds],
        sources=[source for _, source in records],
        dirty=dataset.dirty,
        clean=dataset.clean,
    )


@dataclass
class Job:
    """One served job: a named CSV plus the ground truth to score it."""

    name: str
    csv_text: str
    dirty: Table
    clean: Table
    #: True for the second submission of a table (its prompts are cached).
    warm: bool = False

    @property
    def rows(self) -> int:
        return self.dirty.num_rows


def job_list(seed: int, tables: int) -> List[Job]:
    """``2 * tables`` jobs: each table cold, then warm.

    Tables come in rounds that hold each of :data:`JOB_DATASETS` once, in a
    seeded order, so every stretch of the run sees the same dataset mix.
    """
    rng = random.Random(seed)
    jobs: List[Job] = []
    order: List[str] = []
    for index in range(tables):
        if not order:
            order = list(JOB_DATASETS)
            rng.shuffle(order)
        name = order.pop()
        generator_seed = rng.randrange(1_000_000)
        dataset = load_dataset(name, seed=generator_seed, scale=JOB_SCALE)
        csv_text = to_csv_text(dataset.dirty)
        table_name = f"{name}_{index}"
        for warm in (False, True):
            jobs.append(Job(table_name, csv_text, dataset.dirty, dataset.clean, warm=warm))
    return jobs
