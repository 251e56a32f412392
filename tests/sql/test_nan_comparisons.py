"""Executor comparison semantics around non-finite values.

``_numeric_pair`` used to accept ``'nan'``/``'inf'``/``'Infinity'`` strings
as numbers, and ``_compare`` answered 0 for NaN against anything — so
``'nan' >= 5`` and ``'nan' <= 5`` were *both* true.  Non-finite string
casts are now rejected (such strings compare textually, like any other
non-numeric string) and ``compare_values`` is a deterministic total order
with NaN after every real value.
"""

import math

import pytest

from repro.dataframe.table import Table
from repro.sql.comparison import compare_values as _compare
from repro.sql.database import Database
from repro.sql.executor import _sort_key

from interpreter_oracle import engine


@pytest.fixture
def db():
    database = Database()
    database.register(
        Table.from_dict(
            "t",
            {
                "label": ["a", "b", "c", "d"],
                "value": ["nan", "inf", "Infinity", "7"],
                "discount": ["5% off", "50 off", "under_score", "plain"],
            },
        )
    )
    return database


class TestNonFiniteStrings:
    def test_nan_string_is_not_a_number(self, db):
        # Before the fix both >= and <= were true (NaN probed equal to all).
        ge = db.scalar("SELECT 'nan' >= 5")
        le = db.scalar("SELECT 'nan' <= 5")
        eq = db.scalar("SELECT 'nan' = 5")
        assert not (ge and le and not eq), "NaN-string must not compare equal to everything"
        # Exactly one of <, =, > holds: a deterministic trichotomy.
        lt = db.scalar("SELECT 'nan' < 5")
        gt = db.scalar("SELECT 'nan' > 5")
        assert sum(bool(v) for v in (lt, eq, gt)) == 1

    @pytest.mark.parametrize("text", ["nan", "inf", "Infinity", "-inf", "NAN"])
    def test_non_finite_strings_filtered_like_text(self, db, text):
        # A numeric range predicate must not implicitly cast these strings.
        result = db.sql(f"SELECT value = '{text}' AS as_text, value = {7} AS as_number FROM t")
        both = zip(result.column("as_text").values, result.column("as_number").values)
        assert not any(as_text and as_number for as_text, as_number in both)

    def test_numeric_strings_still_cast(self, db):
        assert db.scalar("SELECT '7' >= 5") is True
        assert db.scalar("SELECT ' 7 ' = 7") is True


class TestCompareTotalOrder:
    def test_nan_sorts_after_every_number(self):
        nan = float("nan")
        assert _compare(nan, 5.0) == 1
        assert _compare(5.0, nan) == -1
        assert _compare(nan, float("inf")) == 1
        assert _compare(float("-inf"), nan) == -1
        assert _compare(nan, nan) == 0

    def test_infinities_compare_numerically(self):
        assert _compare(float("inf"), 1e308) == 1
        assert _compare(float("-inf"), -1e308) == -1
        assert _compare(float("inf"), float("inf")) == 0

    def test_sort_key_puts_nan_last_in_both_directions(self):
        values = [3.0, float("nan"), 1.0, float("inf"), -2.0]
        ascending = sorted(values, key=lambda v: _sort_key(v, False))
        assert math.isnan(ascending[-1])
        assert ascending[:4] == [-2.0, 1.0, 3.0, float("inf")]
        descending = sorted(values, key=lambda v: _sort_key(v, True))
        assert math.isnan(descending[-1])
        assert descending[:4] == [float("inf"), 3.0, 1.0, -2.0]

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("descending, kept", [(False, ["c", "x"]), (True, ["a", "x"])])
    def test_keep_first_never_picks_a_nan_row(self, compiled, descending, kept):
        # The keep-first QUALIFY sorts each partition by the same total
        # order: a NaN sort key comes last whichever the direction.
        db = Database()
        db.register(
            Table.from_dict(
                "m",
                {"g": [1, 1, 1, 2], "k": ["a", "b", "c", "x"], "v": [2.0, float("nan"), 1.0, float("nan")]},
            )
        )
        order = "v DESC" if descending else "v"
        with engine(compiled):
            result = db.sql(
                f"SELECT k FROM m QUALIFY ROW_NUMBER() OVER (PARTITION BY g ORDER BY {order}) = 1"
            )
        assert result.to_dict() == {"k": kept}
