"""StreamingCleaner mechanics: schema checks, buffering, stats, lifecycle."""

from __future__ import annotations

import pytest

from repro.core.context import ROW_ID_COLUMN
from repro.dataframe import Column, ColumnType, Table
from repro.stream import StreamingCleaner, iter_table_batches


def batch_of(cities, name="t"):
    return Table.from_dict(name, {"city": cities, "note": [f"n{i}" for i in range(len(cities))]})


SMALL = ["NY"] * 6 + ["New York"] * 2 + ["LA"] * 4


class TestSchemaAndLifecycle:
    def test_schema_mismatch_rejected(self):
        stream = StreamingCleaner("t")
        stream.process_batch(batch_of(SMALL))
        with pytest.raises(ValueError, match="does not match the stream schema"):
            stream.process_batch(Table.from_dict("t", {"city": ["X"]}))

    def test_row_id_column_rejected(self):
        stream = StreamingCleaner("t")
        bad = Table.from_dict("t", {ROW_ID_COLUMN: [1], "city": ["NY"]})
        with pytest.raises(ValueError, match="must not carry"):
            stream.process_batch(bad)

    def test_empty_first_batch_defers_priming(self):
        stream = StreamingCleaner("t", detect_drift=False)
        empty = Table("t", [Column("city", [], ColumnType.VARCHAR), Column("note", [], ColumnType.VARCHAR)])
        r0 = stream.process_batch(empty)
        assert not r0.primed and r0.llm_calls == 0
        r1 = stream.process_batch(batch_of(SMALL))
        assert r1.primed
        assert stream.cleaned_table().num_rows == len(SMALL)

    def test_empty_batch_after_priming_is_noop(self):
        stream = StreamingCleaner("t", detect_drift=False)
        stream.process_batch(batch_of(SMALL))
        empty = Table("t", [Column("city", [], ColumnType.VARCHAR), Column("note", [], ColumnType.VARCHAR)])
        result = stream.process_batch(empty)
        assert result.replayed and result.llm_calls == 0
        assert result.added == []

    def test_reset_reprimes(self):
        stream = StreamingCleaner("t", detect_drift=False)
        stream.process_batch(batch_of(SMALL))
        stream.reset()
        assert stream.plan is None
        result = stream.process_batch(batch_of(SMALL))
        assert result.primed

    def test_cleaned_table_empty_before_any_batch(self):
        assert StreamingCleaner("t").cleaned_table().num_rows == 0


class TestPrimeWindowBuffering:
    def test_buffers_until_prime_rows_then_emits_everything(self):
        whole = batch_of(SMALL)
        stream = StreamingCleaner("t", detect_drift=False, prime_rows=10)
        r0 = stream.process_batch(whole.take(list(range(0, 4))))
        assert r0.buffered and not r0.primed and r0.llm_calls == 0
        assert r0.added == []
        r1 = stream.process_batch(whole.take(list(range(4, 8))))
        assert r1.buffered
        r2 = stream.process_batch(whole.take(list(range(8, len(SMALL)))))
        assert r2.primed
        # All buffered rows surface once primed.
        assert stream.cleaned_table().num_rows == len(SMALL)

    def test_prime_plan_is_partitioning_invariant(self):
        whole = batch_of(SMALL)

        def run(batch_rows):
            stream = StreamingCleaner("t", detect_drift=False, prime_rows=8)
            for batch in iter_table_batches(whole, batch_rows):
                stream.process_batch(batch)
            return [(s.kind, s.target, s.payload) for s in stream.plan.steps], (
                stream.cleaned_table().to_dict()
            )

        plans_and_cells = {str(run(rows)) for rows in (2, 3, 5, 12)}
        assert len(plans_and_cells) == 1

    def test_negative_prime_rows_rejected(self):
        with pytest.raises(ValueError):
            StreamingCleaner("t", prime_rows=-1)


class TestAccounting:
    def test_stats_accumulate(self):
        stream = StreamingCleaner("t", detect_drift=False)
        primed, *_ = [stream.process_batch(batch) for batch in iter_table_batches(batch_of(SMALL), 4)]
        stats = stream.stats
        assert stats.batches == 3
        assert stats.rows_ingested == len(SMALL)
        assert stats.primes == 1
        assert stats.replayed_batches == 2
        assert stats.llm_calls == primed.llm_calls
        assert stats.seconds > 0
        payload = stats.to_dict()
        assert payload["batches"] == 3

    def test_duplicate_state_exposed(self):
        stream = StreamingCleaner("t", detect_drift=False)
        dup = Table.from_dict("t", {"city": ["NY", "NY"], "note": ["same", "same"]})
        tail = Table.from_dict("t", {"city": ["NY"], "note": ["same"]})
        stream.process_batch(dup)
        stream.process_batch(tail)
        assert stream.stats.duplicate_rows_seen == 2

    def test_cleaned_table_preserves_cast_types(self):
        # A numeric-looking column gets cast by the plan; the cumulative
        # cleaned table must carry the cast type, not VARCHAR.
        table = Table.from_dict(
            "t",
            {
                "city": SMALL,
                "score": [str(i) for i in range(len(SMALL))],
            },
        )
        stream = StreamingCleaner("t", detect_drift=False)
        for batch in iter_table_batches(table, 5):
            stream.process_batch(batch)
        if any(s.kind == "cast" for s in stream.plan.steps):
            cleaned = stream.cleaned_table()
            assert cleaned.column("score").dtype is not ColumnType.VARCHAR
