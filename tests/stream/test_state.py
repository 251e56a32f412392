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

from fold_oracle import RefoldOracle
from repro.core.context import ROW_ID_COLUMN
from repro.core.plan import PlanStep
from repro.dataframe import Column, ColumnType, Table
from repro.sql import Database
from repro.sql.executor import _hashable
from repro.stream import TableLevelState, table_level_survivors


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
keep_best_step = st.sampled_from([unique_step("a", "o"), unique_step("b", "o")])
any_step = st.one_of(
    st.sampled_from([dedup_step(COLUMNS), dedup_step(["b"]), unique_step("a"), unique_step("b")]),
    keep_best_step,
)
# Chains of up to three steps, at least two of them keep-best in the last two
# shapes: steps downstream of a keep-best step hold candidates, and an
# upstream retraction can resurface one of them.
delta_chains = st.one_of(
    step_chains,
    st.lists(keep_best_step, min_size=2, max_size=3),
    st.tuples(keep_best_step, any_step, any_step).map(list),
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
    @given(delta_chains, rows_and_cuts())
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


def step_key_count(step, rows):
    """Distinct partition keys of ``step`` among ``rows``."""
    columns = step.payload["columns"] if step.kind == "dedup" else [step.payload["column"]]
    indexes = [COLUMNS.index(c) for c in columns]
    return len({tuple(_hashable(row[i]) for i in indexes) for _, row in rows})


class TestDeltaDifferential:
    """Every batch's delta equals the whole-history refold's."""

    @given(delta_chains, rows_and_cuts())
    @settings(max_examples=200, deadline=None)
    def test_every_batch_delta_equals_refold(self, steps, data):
        rows, cuts = data
        state = TableLevelState(steps, COLUMNS)
        oracle = RefoldOracle(steps, COLUMNS)
        bounds = [0] + cuts + [len(rows)]
        for a, b in zip(bounds, bounds[1:]):
            batch = rows[a:b]
            assert state.apply_batch(batch) == oracle.apply_batch(batch)
            assert state.survivors == oracle.survivors
            assert state.survivor_count == len(oracle.survivors)
            # State is bounded by keys, never by the rows seen so far: a step
            # keeps one winner per key of its own, or — downstream of a
            # keep-best step — the rows reaching it, one per upstream key.
            for index, size in enumerate(state.step_sizes()):
                reaching = table_level_survivors(steps[:index], rows[:b], COLUMNS)
                if any(s.payload.get("order_column") for s in steps[:index]):
                    upstream = table_level_survivors(steps[: index - 1], rows[:b], COLUMNS)
                    assert size == len(reaching) <= step_key_count(steps[index - 1], upstream)
                else:
                    assert size == step_key_count(steps[index], reaching)


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

    def test_upstream_retraction_resurfaces_next_candidate(self):
        # unique(a) keeps the best o; unique(b) then keeps the first row per b.
        steps = [unique_step("a", "o"), unique_step("b")]
        state = TableLevelState(steps, COLUMNS)
        d1 = state.apply_batch([(0, ("x", "p", 1)), (1, ("y", "p", 1))])
        assert [r for r, _ in d1.kept] == [0]
        assert d1.dropped_row_ids == [1] and d1.removed_by_step == {1: 1}
        # Row 2 displaces row 0 at unique(a); row 0 leaves unique(b)'s input,
        # so row 1 — shadowed there until now — resurfaces.
        d2 = state.apply_batch([(2, ("x", "q", 5))])
        assert d2.kept == [(1, ("y", "p", 1)), (2, ("x", "q", 5))]
        assert d2.retracted_row_ids == [0]
        assert d2.dropped_row_ids == []
        assert d2.removed_by_step == {0: 0}
        assert state.step_sizes() == [2, 2]

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
