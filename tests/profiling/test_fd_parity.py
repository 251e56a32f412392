"""Single-pass FD discovery must reproduce the baseline bit for bit.

``discover_fds`` was rewritten to stringify each column once and share one
non-null index per determinant; ``discover_fds_baseline`` (in
``fd_oracle.py``) is the original per-pair re-materialising loop.  The rewrite is only acceptable if its output
is *byte-identical* — same candidates, same order, and float scores equal to
the last bit (``repr`` equality, not approx) — on the seed datasets and on
adversarial synthetic tables.
"""

from __future__ import annotations

import random

import pytest

from repro.dataframe import Table
from repro.datasets import dataset_names, load_dataset
from repro.profiling import discover_fds

from fd_oracle import discover_fds_baseline


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
