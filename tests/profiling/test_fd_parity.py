"""The coded FD kernels must reproduce the string-grouping oracle bit for bit.

``discover_fds`` and ``fd_violation_groups`` count over per-column
dictionary codes; ``fd_oracle.py`` keeps the per-row string grouping they
replaced.  The kernels are only acceptable if their output is
*byte-identical* — same candidates, same order, float scores equal to the
last bit (``repr`` equality, not approx), same violation groups in the same
order — on the seed datasets and on adversarial synthetic tables.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe import Table
from repro.datasets import dataset_names, load_dataset
from repro.profiling import discover_fds, fd_violation_groups

from fd_oracle import discover_fds_baseline, fd_violation_groups as fd_violation_groups_baseline


def assert_same_violation_groups(table):
    for determinant in table.column_names:
        for dependent in table.column_names:
            if dependent != determinant:
                assert fd_violation_groups(table, determinant, dependent) == fd_violation_groups_baseline(
                    table, determinant, dependent
                ), (determinant, dependent)


def assert_byte_identical(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.determinant, a.dependent) == (b.determinant, b.dependent)
        # repr() equality pins every bit of the float, not just approximate value.
        assert repr(a.score) == repr(b.score)
        assert a.violating_groups == b.violating_groups
        assert a.violating_rows == b.violating_rows


@pytest.mark.parametrize("name", dataset_names())
def test_seed_datasets_byte_identical(name):
    table = load_dataset(name, seed=0, scale=0.2).dirty
    # min_score=0.0 exercises every pair, including the violation-group path.
    assert_byte_identical(
        discover_fds(table, min_score=0.0), discover_fds_baseline(table, min_score=0.0)
    )
    assert_byte_identical(discover_fds(table), discover_fds_baseline(table))
    assert_same_violation_groups(table)


# Equal values with different strings (1, 1.0, True, "1"), NULL and NaN, and
# a small alphabet so groups disagree and counts tie.
hostile_cell = st.sampled_from([None, math.nan, 1, 1.0, True, "1", 0, False, "0", "a", "b"])


@st.composite
def hostile_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=30))
    n_cols = draw(st.integers(min_value=2, max_value=4))
    return Table.from_dict(
        "t",
        {f"c{i}": draw(st.lists(hostile_cell, min_size=n_rows, max_size=n_rows)) for i in range(n_cols)},
    )


@given(hostile_tables())
@settings(max_examples=200, deadline=None)
def test_hostile_tables_byte_identical(table):
    assert_byte_identical(
        discover_fds(table, min_score=0.0, max_determinant_distinct_ratio=1.0),
        discover_fds_baseline(table, min_score=0.0, max_determinant_distinct_ratio=1.0),
    )
    assert_same_violation_groups(table)


def test_count_ties_keep_first_occurrence_order():
    table = Table.from_dict(
        "t",
        {
            "det": ["k"] * 6 + ["m"] * 4,
            "dep": ["y", "x", "x", "y", "z", "z", 1, "1", 1.0, 1.0],
        },
    )
    groups = fd_violation_groups(table, "det", "dep")
    assert groups == [("k", [("y", 2), ("x", 2), ("z", 2)]), ("m", [("1", 2), ("1.0", 2)])]
    assert groups == fd_violation_groups_baseline(table, "det", "dep")


def test_column_subset_and_thresholds():
    table = load_dataset("hospital", seed=1, scale=0.1).dirty
    columns = table.column_names[:5]
    for min_score in (0.0, 0.5, 0.9):
        for ratio in (0.3, 0.95):
            assert_byte_identical(
                discover_fds(table, min_score=min_score, max_determinant_distinct_ratio=ratio, columns=columns),
                discover_fds_baseline(table, min_score=min_score, max_determinant_distinct_ratio=ratio, columns=columns),
            )


def test_nulls_mixed_types_and_ties():
    rng = random.Random(3)
    n = 300
    table = Table.from_dict(
        "t",
        {
            # heavy nulls on both sides of candidate pairs
            "a": [rng.choice(["x", "y", None]) for _ in range(n)],
            "b": [rng.choice(["1", "2", None]) for _ in range(n)],
            # non-string values must stringify exactly once, identically
            "c": [rng.choice([1, 2.5, True, None]) for _ in range(n)],
            # engineered ties: most_common() ordering depends on insertion order
            "d": [["p", "q"][i % 2] for i in range(n)],
        },
    )
    assert_byte_identical(
        discover_fds(table, min_score=0.0), discover_fds_baseline(table, min_score=0.0)
    )
    assert_same_violation_groups(table)


def test_all_null_and_constant_columns():
    table = Table.from_dict(
        "t",
        {
            "allnull": [None, None, None, None],
            "const": ["k", "k", "k", "k"],
            "det": ["a", "a", "b", "b"],
            "dep": ["1", "1", "2", "3"],
        },
    )
    assert_byte_identical(
        discover_fds(table, min_score=0.0), discover_fds_baseline(table, min_score=0.0)
    )


def test_empty_table():
    table = Table.from_dict("t", {"a": [], "b": []})
    assert discover_fds(table) == discover_fds_baseline(table) == []
    assert fd_violation_groups(table, "a", "b") == fd_violation_groups_baseline(table, "a", "b") == []
