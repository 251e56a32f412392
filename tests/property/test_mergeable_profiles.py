"""Property tests: incremental profiling equals batch profiling.

The streaming layer's correctness rests on one invariant: folding a column
(or table) into the incremental accumulators batch by batch — in row order,
under *any* partitioning — produces exactly what the batch profilers compute
on the whole input.  Hypothesis drives arbitrary values and arbitrary split
points through both paths and requires identical results, including
frequency tie-break order and bit-identical FD scores.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

import drift_oracle
from repro.dataframe import Column, ColumnType, Table
from repro.profiling import (
    IncrementalDuplicateState,
    IncrementalFDState,
    MergeableColumnProfile,
    discover_fds,
    duplicate_row_count,
    profile_column,
)
from repro.profiling.mergeable import TOP_K
from repro.stream import DriftConfig, profile_distance

cell_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .-_'",
    min_size=0,
    max_size=8,
)
mixed_value = st.one_of(
    st.none(),
    cell_text,
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.booleans(),
)
# Small alphabets so duplicates and near-FDs actually occur.
categorical_value = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "aa", "B"]))


@st.composite
def values_and_cuts(draw, value=mixed_value, max_size=30):
    values = draw(st.lists(value, min_size=0, max_size=max_size))
    n_cuts = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(values)),
                                min_size=n_cuts, max_size=n_cuts)))
    return values, cuts


def partitions(values, cuts):
    bounds = [0] + list(cuts) + [len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


class TestMergeableColumnProfile:
    @given(values_and_cuts())
    @settings(max_examples=120, deadline=None)
    def test_fold_over_any_partitioning_matches_batch_counts(self, data):
        values, cuts = data
        column = Column("c", values, ColumnType.VARCHAR)
        incremental = MergeableColumnProfile("c")
        for part in partitions(values, cuts):
            incremental.update(part)
        batch = profile_column(column, max_values=1000)
        assert incremental.row_count == batch.row_count
        assert incremental.null_count == batch.null_count
        assert incremental.counts.most_common() == batch.top_values

    @given(values_and_cuts())
    @settings(max_examples=120, deadline=None)
    def test_folded_shapes_equal_whole_column_shape_mix(self, data):
        values, cuts = data
        incremental = MergeableColumnProfile("c")
        for part in partitions(values, cuts):
            incremental.update(part)
        whole = MergeableColumnProfile.of(Column("c", values, ColumnType.VARCHAR))
        # Insertion order too: the drift distance sums shapes in this order.
        assert list(incremental.shapes.items()) == list(drift_oracle.shape_counts(whole).items())

    @given(values_and_cuts(max_size=40), st.integers(min_value=0, max_value=40))
    @settings(max_examples=120, deadline=None)
    def test_prefix_profile_equals_fresh_profile(self, data, window):
        values, _ = data
        live = MergeableColumnProfile.of(Column("c", values, ColumnType.VARCHAR))
        head = Column("c", values[:window], ColumnType.VARCHAR)
        prefix, fresh = live.prefix(head), MergeableColumnProfile.of(head)
        assert (prefix.row_count, prefix.null_count) == (fresh.row_count, fresh.null_count)
        assert list(prefix.counts.items()) == list(fresh.counts.items())
        assert list(prefix.shapes.items()) == list(fresh.shapes.items())

    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=TOP_K, max_value=200),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_incremental_top_equals_most_common_of_whole_column(self, rng, size, extra, window):
        # A few more distinct values than the profile ranks, drawn evenly,
        # plus NULLs and numbers that stringify like text: the top fills,
        # counts tie at its boundary, and values that lagged catch up with
        # its last member.
        pool = [None, 1, "1", 2.5] + [f"v{i}" for i in range(TOP_K + extra - 2)]
        values = [rng.choice(pool) for _ in range(size)]
        cuts = sorted(rng.randrange(size + 1) for _ in range(rng.randrange(5)))
        incremental = MergeableColumnProfile("c")
        for part in partitions(values, cuts):
            incremental.update(part)
        whole = MergeableColumnProfile.of(Column("c", values, ColumnType.VARCHAR))
        assert incremental.top() == drift_oracle.top_values(whole)
        assert incremental.top() == drift_oracle.top_values(incremental)
        head = Column("c", values[:window], ColumnType.VARCHAR)
        prefix = incremental.prefix(head)
        assert prefix.top() == drift_oracle.top_values(MergeableColumnProfile.of(head))


# Short digit/letter strings with a few shapes, so baseline and current share
# values and shapes and every drift signal takes non-trivial values.
drift_value = st.one_of(
    st.none(),
    st.sampled_from(["a", "b", "ab", "A1", "12", "123", "x-1", "1.5"]),
    st.integers(min_value=0, max_value=120),
)


class TestDriftSignalsMatchFullScan:
    @given(
        st.lists(drift_value, max_size=40),
        st.lists(drift_value, max_size=60),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_column_drift_identical_to_full_scan(self, baseline_values, current_values, threshold):
        baseline = MergeableColumnProfile("c").update(baseline_values)
        # The live profile keeps folding after the plan was derived.
        current = MergeableColumnProfile("c").update(baseline_values).update(current_values)
        config = DriftConfig(threshold=threshold)
        folded = profile_distance(baseline, current, config)
        expected = drift_oracle.profile_distance(baseline, current, config)
        assert folded == expected
        assert folded.to_dict() == expected.to_dict()


@st.composite
def small_tables_and_cuts(draw):
    n_rows = draw(st.integers(min_value=0, max_value=20))
    n_cols = draw(st.integers(min_value=1, max_value=3))
    names = [f"c{i}" for i in range(n_cols)]
    data = {
        name: draw(st.lists(categorical_value, min_size=n_rows, max_size=n_rows))
        for name in names
    }
    table = Table.from_dict("t", data)
    n_cuts = draw(st.integers(min_value=0, max_value=3))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n_rows),
                                min_size=n_cuts, max_size=n_cuts)))
    return table, cuts


def table_partitions(table, cuts):
    bounds = [0] + list(cuts) + [table.num_rows]
    return [table.take(list(range(a, b))) for a, b in zip(bounds, bounds[1:])]


class TestIncrementalTableState:
    @given(small_tables_and_cuts())
    @settings(max_examples=80, deadline=None)
    def test_fd_candidates_match_batch_discovery(self, data):
        table, cuts = data
        state = IncrementalFDState(table.column_names)
        for part in table_partitions(table, cuts):
            state.update(part)
        assert state.candidates(min_score=0.5) == discover_fds(table, min_score=0.5)

    @given(small_tables_and_cuts())
    @settings(max_examples=80, deadline=None)
    def test_duplicates_match_batch_counts(self, data):
        table, cuts = data
        state = IncrementalDuplicateState()
        for part in table_partitions(table, cuts):
            state.update(part)
        assert state.row_count == table.num_rows
        assert state.duplicate_rows == duplicate_row_count(table)
