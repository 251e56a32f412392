"""Comparison helpers shared by every expression the engine evaluates."""

from repro.sql.comparison import compare_values, numeric_pair, sql_equal


class TestComparisonHelpers:
    def test_numeric_pair_rejects_nan_strings(self):
        # 'nan'/'inf' strings must compare as text, not poison numeric paths.
        assert numeric_pair("nan", 1) is None
        assert numeric_pair("inf", 1) is None
        assert numeric_pair("2.5", 1) == (2.5, 1.0)

    def test_sql_equal_numeric_text(self):
        assert sql_equal("2.50", 2.5)
        assert not sql_equal("abc", 0)
        assert sql_equal(True, 1)

    def test_compare_values_total_order(self):
        assert compare_values(3, "12") < 0
        assert compare_values("abc", 999) > 0  # text falls back to str vs str
        assert compare_values("abc", "abd") < 0
        assert compare_values(2, 2.0) == 0
        # NaN sorts after every real value, including +inf.
        assert compare_values(float("nan"), float("inf")) > 0
        assert compare_values(float("nan"), 1e300) > 0
        assert compare_values(float("nan"), float("nan")) == 0
