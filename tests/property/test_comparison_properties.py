"""Property tests for the executor's comparison and sort-key semantics.

The regression behind these: ``_compare`` answered 0 for NaN against
anything (all three probes False), so ``>=`` and ``<=`` both held and a
sort treated NaN as equal to every value.  The properties pin the repaired
contract: ``_compare`` is a deterministic *total order* over floats
(including NaN and the infinities, with NaN greatest) and ``_sort_key``
produces keys that are always mutually comparable, with NaN/NULL last.
Over mixed storage types the keys order numbers before text, text by code
point (a prefix first), and DESC reverses exactly that, NULLs still last.
"""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe.schema import is_null
from repro.sql.comparison import compare_values as _compare
from repro.sql.executor import _sort_key

all_floats = st.floats(allow_nan=True, allow_infinity=True)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


mixed_values = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.text(alphabet="ab\x00é0", max_size=4),
)


def _storage_rank(value):
    """Reference order of non-null values: numbers by value, then text by code point."""
    if isinstance(value, (bool, int, float)):
        return (0, int(value) if isinstance(value, bool) else value)
    return (1, str(value))


def _rank(value: float):
    """Reference total order: every real number, then NaN."""
    return (1, 0.0) if math.isnan(value) else (0, value)


class TestCompareTrichotomy:
    @given(all_floats, all_floats)
    def test_exactly_one_outcome(self, a, b):
        cmp = _compare(a, b)
        assert cmp in (-1, 0, 1)

    @given(all_floats, all_floats)
    def test_antisymmetry(self, a, b):
        assert _compare(a, b) == -_compare(b, a)

    @given(all_floats)
    def test_reflexive_equality(self, a):
        assert _compare(a, a) == 0

    @given(all_floats, all_floats)
    def test_matches_reference_order(self, a, b):
        cmp = _compare(a, b)
        ra, rb = _rank(a), _rank(b)
        expected = -1 if ra < rb else (1 if ra > rb else 0)
        assert cmp == expected

    @settings(max_examples=200)
    @given(st.lists(all_floats, min_size=2, max_size=20))
    def test_sorting_with_compare_is_deterministic(self, values):
        ordered = sorted(values, key=functools.cmp_to_key(_compare))
        # A total order must sort identically regardless of input order.
        again = sorted(reversed(values), key=functools.cmp_to_key(_compare))
        assert [_rank(v) for v in ordered] == [_rank(v) for v in again]
        # NaNs all land at the end.
        nan_seen = False
        for v in ordered:
            if math.isnan(v):
                nan_seen = True
            else:
                assert not nan_seen, "a real value sorted after NaN"

    @given(all_floats, st.text(max_size=12))
    def test_float_versus_string_stays_total(self, number, text):
        # Mixed comparisons fall back to text, but must never raise and must
        # remain antisymmetric.
        assert _compare(number, text) in (-1, 0, 1)
        assert _compare(number, text) == -_compare(text, number)


class TestSortKeyTotality:
    @given(st.lists(all_floats, max_size=30))
    def test_keys_are_mutually_comparable(self, values):
        keys = [_sort_key(v, False) for v in values]
        sorted(keys)  # must not raise: totality over floats incl. NaN/inf

    @given(st.lists(all_floats, max_size=30))
    def test_ascending_order_with_nan_last(self, values):
        ordered = sorted(values, key=lambda v: _sort_key(v, False))
        reals = [v for v in ordered if not math.isnan(v)]
        assert reals == sorted(reals)
        tail = ordered[len(reals):]
        assert all(math.isnan(v) for v in tail)

    @given(st.lists(all_floats, max_size=30))
    def test_descending_order_with_nan_still_last(self, values):
        ordered = sorted(values, key=lambda v: _sort_key(v, True))
        reals = [v for v in ordered if not math.isnan(v)]
        assert reals == sorted(reals, reverse=True)
        assert all(math.isnan(v) for v in ordered[len(reals):])

    @given(all_floats)
    def test_nan_and_null_share_the_last_bucket(self, value):
        for descending in (False, True):
            key, last = _sort_key(value, descending), _sort_key(None, descending)
            if is_null(value):
                assert key == last
            else:
                assert key < last

    @settings(max_examples=200)
    @given(st.lists(mixed_values, max_size=20))
    def test_mixed_types_sort_like_storage_classes_in_both_directions(self, values):
        ascending = sorted(values, key=lambda v: _sort_key(v, False))
        descending = sorted(values, key=lambda v: _sort_key(v, True))
        real = [v for v in ascending if not is_null(v)]
        assert ascending[len(real):] == [v for v in values if is_null(v)]
        assert descending[len(real):] == [v for v in values if is_null(v)]
        assert [_storage_rank(v) for v in real] == sorted(_storage_rank(v) for v in values if not is_null(v))
        # DESC is the reverse order; equal keys keep their input order.
        assert [_storage_rank(v) for v in descending[: len(real)]] == sorted(
            (_storage_rank(v) for v in real), reverse=True
        )
