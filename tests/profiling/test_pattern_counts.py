"""``pattern_counts`` answers like the per-pattern SQL count queries.

The oracle in ``pattern_oracle.py`` runs one ``REGEXP_FULL_MATCH … AND NOT …``
count per pattern: on the compiled closures and under the SQL interpreter
oracle (``tests/sql/interpreter_oracle.py``) in the randomised test, and on
the closures in the named cases.  On columns of non-blank strings, ``None``
and NaN with compilable patterns the two must agree exactly.  They
differ on purpose in two named cases: blank values are not counted, and a
pattern that does not compile is dropped instead of zeroing the counts of
every pattern after it.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.profiling.patterns import pattern_counts
from repro.sql import Database

from interpreter_oracle import engine
from pattern_oracle import pattern_counts_sql

PATTERNS = [
    r"\d+",
    r"\d{3}",
    r"\d{3}-\d{4}",
    r"[A-Z].*",
    r"[A-Za-z]+",
    r"[a-z]+\s[a-z]+",
    r"\s*\d+\s*",
    r".*",
    r"A|AB",
    r"x",
]
TEXTS = st.text(alphabet="0123456789-AZaz x", min_size=1, max_size=9).filter(str.strip)
VALUES = st.one_of(TEXTS, st.sampled_from(["123", "555-1234", "Abc", "ab cd", " 12 "]), st.none(), st.just(math.nan))


def _oracle(values, patterns, compiled=True):
    db = Database()
    db.register(Table("t", [Column("c", values, ColumnType.VARCHAR)]))
    with engine(compiled):
        return pattern_counts_sql(db, "t", "c", patterns)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(VALUES, max_size=12),
    patterns=st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=5),
)
def test_pattern_counts_equal_the_sql_counts(compiled, values, patterns):
    assert pattern_counts(values, patterns) == _oracle(values, patterns, compiled)


def test_overlapping_and_repeated_patterns():
    values = ["123", "1234", "Abc", "555-1234", None, math.nan]
    patterns = [r"\d{3}", r"\d+", r"\d+", r"[A-Z].*", r".*"]
    expected = [(r"\d{3}", 1), (r"\d+", 1), (r"\d+", 0), (r"[A-Z].*", 1), (r".*", 1)]
    assert pattern_counts(values, patterns) == expected == _oracle(values, patterns)


def test_blank_values_are_not_counted():
    values = ["ab", "", "   ", None]
    assert _oracle(values, [r".*"]) == [(r".*", 3)]
    assert pattern_counts(values, [r".*"]) == [(r".*", 1)]


def test_malformed_pattern_is_dropped_not_zeroing_later_counts():
    values = ["555-1234"] * 8 + ["5551234"] * 2
    patterns = ["[", r"\d{3}-\d{4}", r"\d{7}"]
    assert _oracle(values, patterns) == [("[", 0), (r"\d{3}-\d{4}", 0), (r"\d{7}", 0)]
    assert pattern_counts(values, patterns) == [(r"\d{3}-\d{4}", 8), (r"\d{7}", 2)]
