"""``pattern_counts`` answers like the per-pattern SQL count queries.

The oracle in ``pattern_oracle.py`` runs one ``REGEXP_FULL_MATCH … AND NOT …``
count per pattern on stdlib sqlite3.  On columns of non-blank strings, ``None``
and NaN with compilable patterns the two must agree exactly.  They
differ on purpose in two named cases: blank values are not counted, and a
pattern that does not compile is dropped instead of zeroing the counts of
every pattern after it.

The oracle's ``REGEXP_FULL_MATCH`` answers like the engine function it
replaced: the whole text must match (not a prefix or a substring), a NULL
argument yields NULL, a number is matched through its text form, and
``%``/``_`` are plain characters.  On a non-blank value it agrees with
``pattern_counts`` on a one-value column.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.profiling.patterns import pattern_counts

from pattern_oracle import connect, pattern_counts_sql

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


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(VALUES, max_size=12),
    patterns=st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=5),
)
def test_pattern_counts_equal_the_sql_counts(values, patterns):
    assert pattern_counts(values, patterns) == pattern_counts_sql(values, patterns)


def test_overlapping_and_repeated_patterns():
    values = ["123", "1234", "Abc", "555-1234", None, math.nan]
    patterns = [r"\d{3}", r"\d+", r"\d+", r"[A-Z].*", r".*"]
    expected = [(r"\d{3}", 1), (r"\d+", 1), (r"\d+", 0), (r"[A-Z].*", 1), (r".*", 1)]
    assert pattern_counts(values, patterns) == expected == pattern_counts_sql(values, patterns)


def test_blank_values_are_not_counted():
    values = ["ab", "", "   ", None]
    assert pattern_counts_sql(values, [r".*"]) == [(r".*", 3)]
    assert pattern_counts(values, [r".*"]) == [(r".*", 1)]


def test_malformed_pattern_is_dropped_not_zeroing_later_counts():
    values = ["555-1234"] * 8 + ["5551234"] * 2
    patterns = ["[", r"\d{3}-\d{4}", r"\d{7}"]
    assert pattern_counts_sql(values, patterns) == [("[", 0), (r"\d{3}-\d{4}", 0), (r"\d{7}", 0)]
    assert pattern_counts(values, patterns) == [(r"\d{3}-\d{4}", 8), (r"\d{7}", 2)]


@pytest.mark.parametrize(
    "value, pattern, expected",
    [
        ("abc", "a.c", True),
        ("abc", "b", False),
        ("abc", "ab", False),
        ("", "", True),
        ("", ".+", False),
        ("5% off", "5% off", True),
        ("a_c", "a_c", True),
        ("abc", "a_c", False),
        ("ABC", "abc", False),
        ("état", r"\w+", True),
        (12, r"\d+", True),
        (2.0, r"2\.0", True),
        (-2.5, r"-2\.5", True),
        (None, ".*", None),
        ("a", None, None),
    ],
)
def test_oracle_regexp_full_match_answers(value, pattern, expected):
    connection = connect()
    try:
        (answer,) = connection.execute("SELECT REGEXP_FULL_MATCH(?, ?)", (value, pattern)).fetchone()
    finally:
        connection.close()
    assert answer == (None if expected is None else int(expected))
    if value is not None and pattern is not None and str(value).strip():
        assert pattern_counts([value], [pattern]) == [(pattern, int(expected))]


@pytest.mark.parametrize("query", ["SELECT REGEXP_FULL_MATCH('a', '(')", "SELECT REGEXP_FULL_MATCH('a', 'a', 'a')"])
def test_oracle_regexp_full_match_errors(query):
    connection = connect()
    try:
        with pytest.raises(sqlite3.OperationalError):
            connection.execute(query).fetchone()
    finally:
        connection.close()


def test_oracle_null_rows_pass_neither_filter():
    connection = connect()
    try:
        connection.execute("CREATE TABLE t (k, v)")
        connection.executemany("INSERT INTO t VALUES (?, ?)", [(1, "ab"), (2, None), (3, "12"), (4, 7)])
        matched = connection.execute(r"SELECT k FROM t WHERE REGEXP_FULL_MATCH(v, '\d+') ORDER BY k").fetchall()
        unmatched = connection.execute(r"SELECT k FROM t WHERE NOT REGEXP_FULL_MATCH(v, '\d+') ORDER BY k").fetchall()
    finally:
        connection.close()
    assert ([k for (k,) in matched], [k for (k,) in unmatched]) == ([3, 4], [1])
