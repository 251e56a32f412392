"""``infer_storage_type`` answers like the per-value classification.

The new version decides from the set of runtime types; the loop it replaced
is the oracle in ``storage_type_oracle.py``.  Over mixed lists of every
builtin a column holds — NULLs, NaN, blanks, strings, numbers, bools, dates
and datetimes — and over the types that must take the per-value path
(subclasses, ``IntEnum``) the two must agree exactly.
"""

from __future__ import annotations

import datetime
import enum
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe import schema
from repro.dataframe.schema import ColumnType, infer_storage_type

from storage_type_oracle import infer_storage_type_per_value


class Text(str):
    pass


class Count(int):
    pass


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


BUILTINS = st.one_of(
    st.sampled_from([None, math.nan, "", " ", "x", "12", 0, 1, -3, 0.0, 1.5, -0.0, math.inf, True, False]),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.dates(),
    st.datetimes(),
)
OTHERS = st.sampled_from([Text("a"), Text(""), Count(3), Level.LOW, Level.HIGH])


@given(st.lists(BUILTINS, max_size=12))
@settings(max_examples=500, deadline=None)
def test_builtin_values_match_the_per_value_loop(values):
    assert infer_storage_type(values) is infer_storage_type_per_value(values)


@given(st.lists(st.one_of(BUILTINS, OTHERS), max_size=12))
@settings(max_examples=300, deadline=None)
def test_other_types_match_the_per_value_loop(values):
    assert infer_storage_type(values) is infer_storage_type_per_value(values)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([Text("a"), None], ColumnType.VARCHAR),
        ([Text("")], ColumnType.VARCHAR),
        ([Count(3), 4], ColumnType.INTEGER),
        ([Level.LOW, Level.HIGH], ColumnType.INTEGER),
        ([Level.HIGH, 2.5], ColumnType.DOUBLE),
    ],
)
def test_subclasses_take_the_per_value_path(monkeypatch, values, expected):
    calls = []
    per_value = schema._storage_types_per_value
    monkeypatch.setattr(schema, "_storage_types_per_value", lambda v: calls.append(1) or per_value(v))
    assert infer_storage_type(values) is expected is infer_storage_type_per_value(values)
    assert calls == [1]


@pytest.mark.parametrize(
    "values, expected",
    [
        ([], ColumnType.VARCHAR),
        ([None, math.nan, ""], ColumnType.VARCHAR),
        ([math.nan, 1], ColumnType.INTEGER),
        ([1, 2.0, None], ColumnType.DOUBLE),
        (["", True], ColumnType.BOOLEAN),
        ([datetime.date(2020, 1, 2), datetime.datetime(2020, 1, 2, 3)], ColumnType.TIMESTAMP),
        ([" ", 1], ColumnType.VARCHAR),
    ],
)
def test_builtin_values_never_take_the_per_value_path(monkeypatch, values, expected):
    monkeypatch.setattr(schema, "_storage_types_per_value", None)
    assert infer_storage_type(values) is expected is infer_storage_type_per_value(values)


def test_any_iterable():
    assert infer_storage_type(iter([1, None, 2.5])) is ColumnType.DOUBLE
    assert infer_storage_type((v for v in ["", "a"])) is ColumnType.VARCHAR
