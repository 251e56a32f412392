"""Tests for statistical profiling: column stats, FDs, duplicates, patterns."""

from repro.dataframe import Table
from repro.profiling import (
    discover_fds,
    duplicate_row_count,
    duplicate_row_samples,
    fd_violation_groups,
    match_fraction,
    pattern_counts,
    profile_column,
    profile_table,
)
from repro.profiling.patterns import non_matching_values

from fd_oracle import fd_entropy_score


class TestColumnProfile:
    def test_basic_statistics(self):
        table = Table.from_dict("t", {"c": ["a", "a", "b", None]})
        profile = profile_column(table.column("c"))
        assert profile.row_count == 4
        assert profile.null_count == 1
        assert profile.top_values[0] == ("a", 2)
        assert 0 < profile.null_fraction < 1

    def test_numeric_statistics(self):
        table = Table.from_dict("t", {"c": [1, 5, 3, None]})
        profile = profile_column(table.column("c"))
        assert profile.minimum == 1
        assert profile.maximum == 5
        assert profile.mean == 3.0
        assert profile.is_numeric

    def test_top_value_limit(self):
        table = Table.from_dict("t", {"c": [str(i) for i in range(50)]})
        profile = profile_column(table.column("c"), max_values=10)
        assert len(profile.top_values) == 10


class TestFunctionalDependencies:
    def _table(self):
        return Table.from_dict(
            "t",
            {
                "zip": ["1", "1", "1", "2", "2", "2"],
                "city": ["NY", "NY", "LA", "SF", "SF", "SF"],
                "noise": ["a", "b", "c", "d", "e", "f"],
            },
        )

    def test_exact_fd_scores_one(self):
        table = Table.from_dict("t", {"a": ["x", "x", "y"], "b": ["1", "1", "2"]})
        assert fd_entropy_score(table, "a", "b") == 1.0

    def test_violated_fd_scores_below_one(self):
        score = fd_entropy_score(self._table(), "zip", "city")
        assert 0 < score < 1

    def test_violation_groups(self):
        groups = fd_violation_groups(self._table(), "zip", "city")
        assert len(groups) == 1
        lhs, counts = groups[0]
        assert lhs == "1"
        assert counts[0] == ("NY", 2)

    def test_discover_skips_unique_determinants(self):
        fds = discover_fds(self._table(), min_score=0.5)
        assert all(fd.determinant != "noise" for fd in fds)

    def test_discover_finds_strong_candidates(self):
        table = Table.from_dict("t", {"code": ["A"] * 5 + ["B"] * 5, "name": ["x"] * 5 + ["y"] * 4 + ["z"]})
        fds = discover_fds(table, min_score=0.5)
        assert any(fd.determinant == "code" and fd.dependent == "name" for fd in fds)


class TestDuplicates:
    def test_duplicate_count(self):
        table = Table.from_dict("t", {"a": [1, 1, 2, 2, 2], "b": ["x", "x", "y", "y", "y"]})
        assert duplicate_row_count(table) == 3

    def test_no_duplicates(self):
        table = Table.from_dict("t", {"a": [1, 2, 3]})
        assert duplicate_row_count(table) == 0

    def test_samples(self):
        table = Table.from_dict("t", {"a": [1, 1, 2]})
        samples = duplicate_row_samples(table)
        assert samples == [{"a": 1}]


class TestPatterns:
    def test_pattern_counts_first_match_wins(self):
        counts = pattern_counts(["12", "345", "ab"], [r"\d{2}", r"\d+"])
        assert dict(counts) == {r"\d{2}": 1, r"\d+": 1}

    def test_match_fraction(self):
        assert match_fraction(["1", "2", "x"], [r"\d"]) == 2 / 3
        assert match_fraction([], [r"\d"]) == 1.0

    def test_non_matching_values(self):
        assert non_matching_values(["1", "x", "x"], r"\d") == ["x"]

    def test_invalid_regex_ignored(self):
        assert pattern_counts(["a"], ["["]) == []


class TestTableProfile:
    def test_profile_table(self):
        table = Table.from_dict(
            "t",
            {"code": ["A", "A", "B", "B"], "name": ["x", "x", "y", "y"], "id": ["1", "2", "3", "4"]},
        )
        profile = profile_table(table, fd_min_score=0.5)
        assert profile.row_count == 4
        assert set(profile.column_names) == {"code", "name", "id"}
        assert profile.duplicate_rows == 0
        assert any(fd.determinant == "code" for fd in profile.fd_candidates)
        assert "Table t" in profile.summary_text()
