"""Column profiles counted over dictionary codes must equal the per-row count.

``profile_column`` reads value frequencies off the column's memoised
dictionary codes.  :func:`profile_column_baseline` is the one-pass per-row
loop it replaced, stringifying and counting every cell; every field of the
two profiles must be equal, floats to the bit (``repr`` equality).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe import Column
from repro.dataframe.schema import is_null
from repro.datasets import dataset_names, load_dataset
from repro.profiling import ColumnProfile, profile_column


def profile_column_baseline(column: Column, max_values: int = 1000) -> ColumnProfile:
    """The per-row profiler: one string ``Counter`` filled cell by cell."""
    counts: Counter = Counter()
    non_null: List[Any] = []
    null_count = 0
    for value in column.values:
        if is_null(value):
            null_count += 1
        else:
            non_null.append(value)
            counts[str(value)] += 1
    top = counts.most_common(max_values)
    numeric = [v for v in non_null if isinstance(v, (int, float)) and not isinstance(v, bool)]
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None
    mean: Optional[float] = None
    if numeric:
        minimum = min(numeric)
        maximum = max(numeric)
        mean = math.fsum(float(v) for v in numeric) / len(numeric)
    elif non_null:
        as_strings = [str(v) for v in non_null]
        minimum = min(as_strings)
        maximum = max(as_strings)
    avg_length = None
    if non_null:
        avg_length = sum(len(str(v)) for v in non_null) / len(non_null)
    return ColumnProfile(
        name=column.name,
        dtype=column.dtype,
        row_count=len(column),
        null_count=null_count,
        distinct_count=len(counts) + (1 if null_count else 0),
        unique_ratio=(len(counts) / len(non_null)) if non_null else 0.0,
        top_values=[(value, count) for value, count in top],
        minimum=minimum,
        maximum=maximum,
        mean=mean,
        avg_length=avg_length,
    )


def assert_same_profile(column: Column, max_values: int = 1000) -> None:
    assert repr(profile_column(column, max_values)) == repr(profile_column_baseline(column, max_values))


@pytest.mark.parametrize("name", dataset_names())
def test_seed_datasets_identical(name):
    for column in load_dataset(name, seed=0, scale=0.2).dirty.columns:
        assert_same_profile(column)
        assert_same_profile(column, max_values=5)


# NULL and NaN, equal values with different strings, and non-ASCII text.
cells = st.one_of(
    st.sampled_from([None, math.nan, 1, 1.0, True, "1", 0, -0.0, False, "0", 2.5]),
    st.text(alphabet="abİß ", max_size=3),
)


@given(st.lists(cells, max_size=30), st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_hostile_columns_identical(values, max_values):
    assert_same_profile(Column("c", values), max_values)
