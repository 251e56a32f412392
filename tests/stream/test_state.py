"""Differential tests: streaming table-level fold vs the executor's QUALIFY.

The batch operators express duplicate removal and key uniqueness as
``QUALIFY ROW_NUMBER() OVER (...) = 1`` statements.  The streaming layer
re-implements those semantics as an incremental fold.  These tests pin the
two implementations to each other: random tables, random step chains,
random batch splits — identical survivors, bit for bit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import ROW_ID_COLUMN
from repro.core.plan import PlanStep
from repro.dataframe import Column, ColumnType, Table
from repro.sql import Database
from repro.stream import TableLevelState, table_level_survivors
from repro.stream.state import TableLevelDelta


def dedup_step(columns):
    return PlanStep(
        kind="dedup", issue_type="duplication", target="t", target_table="t1",
        payload={"columns": list(columns)},
    )


def unique_step(column, order_column=None):
    return PlanStep(
        kind="unique", issue_type="column_uniqueness", target=column, target_table="t2",
        payload={"column": column, "order_column": order_column},
    )


COLUMNS = ["a", "b", "o"]


def qualify_sql_survivors(steps, rows):
    """Oracle: run the operators' actual QUALIFY statements via the executor."""
    db = Database()
    table = Table(
        "src",
        [Column(ROW_ID_COLUMN, [r[0] for r in rows], ColumnType.INTEGER)]
        + [
            Column(name, [r[1][i] for r in rows])
            for i, name in enumerate(COLUMNS)
        ],
    )
    db.register(table, replace=True)
    current = "src"
    for index, step in enumerate(steps):
        target = f"step{index}"
        if step.kind == "dedup":
            partition = ", ".join(step.payload["columns"])
            order = ROW_ID_COLUMN
        else:
            partition = step.payload["column"]
            order_column = step.payload.get("order_column")
            order = f"{order_column} DESC" if order_column else ROW_ID_COLUMN
        db.sql(
            f"CREATE OR REPLACE TABLE {target} AS\nSELECT *\nFROM {current}\n"
            f"QUALIFY ROW_NUMBER() OVER (PARTITION BY {partition} ORDER BY {order}) = 1"
        )
        current = target
    result = db.table(current)
    ids = result.column(ROW_ID_COLUMN).values
    data = [result.column(name).values for name in COLUMNS]
    return [(int(ids[i]), tuple(col[i] for col in data)) for i in range(result.num_rows)]


step_chains = st.lists(
    st.one_of(
        st.just(dedup_step(COLUMNS)),
        st.sampled_from([unique_step("a"), unique_step("b")]),
        st.sampled_from([unique_step("a", "o"), unique_step("b", "o")]),
    ),
    min_size=1,
    max_size=3,
)
cell = st.one_of(st.none(), st.sampled_from(["x", "y", "z"]), st.integers(min_value=0, max_value=3))
# A real order column is single-typed (the plan's cast step ran before the
# table-level steps), so the strategy keeps it homogeneous: ints or NULL.
order_cell = st.one_of(st.none(), st.integers(min_value=0, max_value=5))


@st.composite
def rows_and_cuts(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    rows = [
        (i, (draw(cell), draw(cell), draw(order_cell)))
        for i in range(n)
    ]
    n_cuts = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n), min_size=n_cuts, max_size=n_cuts)))
    return rows, cuts


class TestFoldMatchesQualifySql:
    @given(step_chains, rows_and_cuts())
    @settings(max_examples=60, deadline=None)
    def test_incremental_fold_equals_sql(self, steps, data):
        rows, cuts = data
        oracle = qualify_sql_survivors(steps, rows)

        state = TableLevelState(steps, COLUMNS)
        bounds = [0] + cuts + [len(rows)]
        for a, b in zip(bounds, bounds[1:]):
            state.apply_batch(rows[a:b])
        streamed = sorted(state.survivors.items())
        assert streamed == sorted(oracle)

    @given(step_chains, rows_and_cuts())
    @settings(max_examples=60, deadline=None)
    def test_batch_oracle_equals_sql(self, steps, data):
        rows, _ = data
        assert sorted(table_level_survivors(steps, rows, COLUMNS)) == sorted(
            qualify_sql_survivors(steps, rows)
        )


class TestDeltaSemantics:
    def test_keep_first_never_retracts(self):
        steps = [dedup_step(COLUMNS)]
        state = TableLevelState(steps, COLUMNS)
        d1 = state.apply_batch([(0, ("x", "y", 1)), (1, ("x", "y", 1))])
        assert [r for r, _ in d1.kept] == [0]
        assert d1.dropped_row_ids == [1]
        d2 = state.apply_batch([(2, ("x", "y", 1)), (3, ("z", "z", 2))])
        assert [r for r, _ in d2.kept] == [3]
        assert d2.dropped_row_ids == [2]
        assert d2.retracted_row_ids == []

    def test_keep_best_retracts_displaced_row(self):
        steps = [unique_step("a", "o")]
        state = TableLevelState(steps, COLUMNS)
        d1 = state.apply_batch([(0, ("k", "v1", 1))])
        assert [r for r, _ in d1.kept] == [0]
        # A later row with a higher order value displaces the emitted one.
        d2 = state.apply_batch([(1, ("k", "v2", 5))])
        assert [r for r, _ in d2.kept] == [1]
        assert d2.retracted_row_ids == [0]
        # Ties lose to the incumbent (stable ordering).
        d3 = state.apply_batch([(2, ("k", "v3", 5))])
        assert d3.kept == []
        assert d3.dropped_row_ids == [2]
        assert state.survivors == {1: ("k", "v2", 5)}

    def test_chained_keep_first_claims_apply_per_step(self):
        # A row kept by step 1 but dropped by step 2 must still shadow later
        # rows at step 1 — the chained-QUALIFY semantics.
        steps = [unique_step("a"), unique_step("b")]
        state = TableLevelState(steps, COLUMNS)
        state.apply_batch([(0, ("a1", "b1", None))])
        d = state.apply_batch([(1, ("a2", "b1", None)), (2, ("a2", "b9", None))])
        # Row 1 wins unique(a) for a2 but loses unique(b); row 2 must NOT win.
        assert d.kept == []
        assert sorted(d.dropped_row_ids) == [1, 2]

    def test_row_local_step_rejected(self):
        with pytest.raises(ValueError, match="row-local"):
            TableLevelState(
                [PlanStep(kind="value_map", issue_type="string_outliers", target="a",
                          target_table="x", payload={"column": "a", "mapping": {}})],
                COLUMNS,
            )

    def test_reset_forgets_everything(self):
        state = TableLevelState([dedup_step(COLUMNS)], COLUMNS)
        state.apply_batch([(0, ("x", "y", 1))])
        state.reset()
        d = state.apply_batch([(1, ("x", "y", 1))])
        assert [r for r, _ in d.kept] == [1]


class TestRandomisedSoak:
    def test_long_random_stream_matches_oracle(self):
        rng = random.Random(42)
        steps = [dedup_step(COLUMNS), unique_step("a", "o")]
        state = TableLevelState(steps, COLUMNS)
        history = []
        next_id = 0
        for _ in range(30):
            batch = []
            for _ in range(rng.randrange(0, 6)):
                row = (
                    rng.choice(["x", "y", None]),
                    rng.choice(["p", "q"]),
                    rng.choice([None, 1, 2, 3]),
                )
                batch.append((next_id, row))
                next_id += 1
            history.extend(batch)
            state.apply_batch(batch)
            expected = dict(table_level_survivors(steps, history, COLUMNS))
            assert state.survivors == expected
