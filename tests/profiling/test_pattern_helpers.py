"""The pattern helpers answer like their per-row versions.

``pattern_counts``, ``match_fraction`` and ``non_matching_values`` match each
distinct checked text once and weight it by its count.  The ``*_per_row``
oracles in ``pattern_oracle.py`` match every checked value.  Over NULLs, NaN,
blanks, values whose text collides (``1``, ``"1"``, ``1.0``, ``True``) and
repeated, overlapping or uncompilable patterns — given as a plain list or as
a :class:`Column`, whose dictionary codes the helpers read — the two must
agree exactly, in content and in order.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column
from repro.profiling.patterns import match_fraction, non_matching_values, pattern_counts

from pattern_oracle import (
    match_fraction_per_row,
    non_matching_values_per_row,
    pattern_counts_per_row,
)

PATTERNS = [
    r"\d+",
    r"\d{3}",
    r"\d+\.\d+",
    r"[A-Z].*",
    r"[A-Za-z]+",
    r"\s*\d+\s*",
    r"True|False",
    r".*",
    r"A|AB",
    "[",
    "(",
]
VALUES = st.one_of(
    st.sampled_from([None, math.nan, "", " ", "  ", 1, "1", 1.0, True, False, 0, "1.0", "True", " 1 ", "123", "AB"]),
    st.text(alphabet="0123A b.", max_size=5),
    st.integers(-3, 200),
)


def _shapes(values):
    """The same values as a list and as a column."""
    return [values, Column("c", values)]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(VALUES, max_size=15),
    patterns=st.lists(st.sampled_from(PATTERNS), max_size=5),
)
def test_helpers_equal_the_per_row_versions(values, patterns):
    for shaped in _shapes(values):
        assert pattern_counts(shaped, patterns) == pattern_counts_per_row(values, patterns)
        assert match_fraction(shaped, patterns) == match_fraction_per_row(values, patterns)
        for pattern in patterns:
            assert non_matching_values(shaped, pattern) == non_matching_values_per_row(values, pattern)


@pytest.mark.parametrize("as_column", [False, True], ids=["list", "column"])
def test_colliding_texts_count_apart(as_column):
    values = [1, "1", 1.0, True, None, math.nan, "", " ", 1, "1.0", True]
    shaped = Column("c", values) if as_column else values
    patterns = [r"\d", r"\d+\.\d+", r"\d+", r"True"]
    assert pattern_counts(shaped, patterns) == [(r"\d", 3), (r"\d+\.\d+", 2), (r"\d+", 0), (r"True", 2)]
    assert pattern_counts(shaped, patterns) == pattern_counts_per_row(values, patterns)
    assert match_fraction(shaped, [r"\d"]) == 3 / 7 == match_fraction_per_row(values, [r"\d"])
    assert non_matching_values(shaped, r"\d") == ["1.0", "True"] == non_matching_values_per_row(values, r"\d")


@pytest.mark.parametrize("as_column", [False, True], ids=["list", "column"])
def test_repeated_overlapping_and_uncompilable_patterns(as_column):
    values = ["123", "1234", "Abc", "123", "555-1234", "Abc", None, "  "]
    shaped = Column("c", values) if as_column else values
    patterns = ["[", r"\d{3}", r"\d+", r"\d+", "(", r"[A-Z].*", r".*"]
    expected = [(r"\d{3}", 2), (r"\d+", 1), (r"\d+", 0), (r"[A-Z].*", 2), (r".*", 1)]
    assert pattern_counts(shaped, patterns) == expected == pattern_counts_per_row(values, patterns)
    assert match_fraction(shaped, ["["]) == 0.0 == match_fraction_per_row(values, ["["])
    assert non_matching_values(shaped, "[") == [] == non_matching_values_per_row(values, "[")


def test_no_checked_values():
    for values in ([], [None, math.nan, "", "   "]):
        for shaped in _shapes(values):
            assert pattern_counts(shaped, [r".*"]) == [(r".*", 0)]
            assert match_fraction(shaped, [r".*"]) == 1.0
            assert non_matching_values(shaped, r"x") == []
