"""A stream batch's work must not grow with the stream's age.

Counts work rather than timing it, over a long upsert-style stream: a
backfill primes the plan (``unique(record_id) ORDER BY updated_at DESC``,
the keep-best fold), then 200 micro-batches re-send backfill rows as new
records or as updates of earlier ones.  The stream is stationary, so every
batch replays the plan.
"""

from __future__ import annotations

import random

import pytest

import repro.core.plan
import repro.profiling.mergeable
import repro.sql.database
from repro.dataframe import Column, ColumnType, Table
from repro.dataframe.schema import is_null
from repro.datasets import load_dataset
from repro.stream import StreamingCleaner

BATCHES = 200
BATCH_ROWS = 10


def upsert_stream(seed: int = 0):
    """``(backfill, batches)``: flights rows keyed by a record id and stamped in arrival order."""
    rng = random.Random(seed)
    source = load_dataset("flights", seed=0, scale=0.05).dirty
    rows = source.row_tuples()
    records = [(index, index) for index in range(len(rows))]
    # A few backfill updates make record_id a near-unique key candidate.
    for _ in range(max(1, len(records) // 30)):
        records.append(records[rng.randrange(len(records))])
    backfill_size = len(records)
    next_id = len(rows)
    for _ in range(BATCHES * BATCH_ROWS):
        if rng.random() < 0.1:
            records.append(records[rng.randrange(len(records))])
        else:
            records.append((next_id, rng.randrange(len(rows))))
            next_id += 1

    def table(start: int, stop: int) -> Table:
        chunk = records[start:stop]
        columns = [
            Column("record_id", [f"R{r:07d}" for r, _ in chunk], ColumnType.VARCHAR),
            Column(
                "updated_at",
                [f"2024-01-01 {i // 3600 % 24:02d}:{i // 60 % 60:02d}:{i % 60:02d}" for i in range(start, stop)],
                ColumnType.VARCHAR,
            ),
        ]
        for j, column in enumerate(source.columns):
            columns.append(Column(column.name, [rows[s][j] for _, s in chunk], column.dtype))
        return Table("flights_cdc", columns)

    bounds = range(backfill_size, len(records), BATCH_ROWS)
    return table(0, backfill_size), [table(b, b + BATCH_ROWS) for b in bounds]


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def stream_input():
    return upsert_stream()


class TestStreamAgeWork:
    def test_value_shape_once_per_distinct_value_and_no_replay_parses(self, monkeypatch, stream_input):
        backfill, batches = stream_input
        shapes = counting(monkeypatch, repro.profiling.mergeable, "value_shape")
        parses = counting(monkeypatch, repro.sql.database, "parse")
        parses_in_plan = counting(monkeypatch, repro.core.plan, "parse")

        stream = StreamingCleaner(backfill.name)
        assert stream.process_batch(backfill).primed
        assert any(
            s.kind == "unique" and s.payload.get("order_column") == "updated_at"
            for s in stream.plan.steps
        ), [s.to_dict() for s in stream.plan.table_level_steps]
        assert stream.plan.row_local_steps
        parses_after_prime = len(parses) + len(parses_in_plan)
        assert parses_after_prime > 0

        results = [stream.process_batch(batch) for batch in batches]
        assert len(results) == BATCHES
        assert all(r.replayed and not r.drifted_columns for r in results)
        assert stream.stats.retractions > 0

        # The replay chain was parsed during the prime's replay; no later
        # batch parses a statement again.
        assert len(parses) + len(parses_in_plan) == parses_after_prime

        # Each column's distinct values are shaped once, over prime and
        # replay alike: priming does not re-shape its window for the baseline
        # and drift assessment shapes nothing.
        distinct = sum(
            len({str(v) for table in [backfill] + batches for v in table.columns[j].values if not is_null(v)})
            for j in range(backfill.num_columns)
        )
        assert len(shapes) == distinct

    def test_fold_state_bounded_by_keys(self, stream_input):
        backfill, batches = stream_input
        stream = StreamingCleaner(backfill.name)
        stream.process_batch(backfill)
        for batch in batches:
            stream.process_batch(batch)
        state = stream._table_state
        record_ids = {v for t in [backfill] + batches for v in t.column("record_id").values}
        rows = backfill.num_rows + sum(b.num_rows for b in batches)
        assert state.survivor_count == stream.stats.rows_emitted == len(record_ids)
        # One winner per record id, not one entry per row.
        assert state.step_sizes() == [len(record_ids)]
        assert len(record_ids) < rows
