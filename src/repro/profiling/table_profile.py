"""Whole-table profile combining column profiles, FDs and duplicate stats."""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Dict, List

from repro.dataframe.column import Column
from repro.dataframe.table import Table
from repro.obs import span as obs_span
from repro.profiling.column_profile import ColumnProfile, profile_column
from repro.profiling.duplicates import duplicate_row_count, duplicate_row_samples
from repro.profiling.fd import FDCandidate, discover_fds


class TableProfile:
    """Statistical summary of a table: the context Cocoon gives to the LLM.

    A lazy view over one table version: each column is profiled on its first
    read, FD candidates and duplicate stats on theirs, and every result is
    memoised.  Operators read only what they use — FD candidates are read by
    the FD operator alone, duplicate stats by the duplication operator alone.
    """

    def __init__(self, table: Table, max_values_per_column: int = 1000, fd_min_score: float = 0.9):
        self.table_name = table.name
        self.row_count = table.num_rows
        self._table = table
        self._max_values = max_values_per_column
        self._fd_min_score = fd_min_score
        self._columns: Dict[str, ColumnProfile] = {}

    def column(self, name: str) -> ColumnProfile:
        profile = self._columns.get(name)
        if profile is None:
            column = self._table.column(name)
            with obs_span("profile.column", column=name):
                profile = profile_column(column, max_values=self._max_values)
            self._columns[name] = profile
        return profile

    @property
    def column_names(self) -> List[str]:
        return self._table.column_names

    @property
    def column_profiles(self) -> Dict[str, ColumnProfile]:
        return {name: self.column(name) for name in self.column_names}

    @cached_property
    def fd_candidates(self) -> List[FDCandidate]:
        with obs_span("profile.fds"):
            return discover_fds(self._table, min_score=self._fd_min_score) if self.row_count > 0 else []

    @cached_property
    def duplicate_rows(self) -> int:
        with obs_span("profile.duplicates"):
            return duplicate_row_count(self._table)

    @cached_property
    def duplicate_samples(self) -> List[dict]:
        with obs_span("profile.duplicates"):
            return duplicate_row_samples(self._table)

    def inherit(self, previous: "TableProfile") -> None:
        """Reuse ``previous``'s column profiles for columns this version left as they were."""
        for column in self._table.columns:
            profile = previous._columns.get(column.name)
            if profile is not None and _unchanged(previous._table.column(column.name), column):
                self._columns[column.name] = profile

    def summary_text(self) -> str:
        """Human-readable profile summary (used in reports and examples)."""
        profiles = self.column_profiles
        lines = [f"Table {self.table_name}: {self.row_count} rows, {len(profiles)} columns"]
        for profile in profiles.values():
            lines.append(
                f"  - {profile.name} ({profile.dtype}): {profile.distinct_count} distinct, "
                f"{profile.null_fraction:.1%} null, unique ratio {profile.unique_ratio:.2f}"
            )
        if self.fd_candidates:
            lines.append("  Functional dependency candidates:")
            for fd in self.fd_candidates[:10]:
                lines.append(f"    * {fd}")
        lines.append(f"  Duplicate rows: {self.duplicate_rows}")
        return "\n".join(lines)


def _unchanged(old: Column, new: Column) -> bool:
    """Whether ``profile_column`` must give ``new`` the profile it gave ``old``.

    ``profile_column`` is a pure function of name, dtype and values, so
    element *identity* is an exact test.  ``==`` is not: ``1 == 1.0 == True``
    and ``0.0 == -0.0``, yet their ``str`` differ.
    """
    return (
        old.name == new.name
        and old.dtype == new.dtype
        and len(old) == len(new)
        and all(map(operator.is_, old.values, new.values))
    )


def profile_table(table: Table, max_values_per_column: int = 1000, fd_min_score: float = 0.9) -> TableProfile:
    """Profile of ``table``: columns, FD candidates and duplicate stats, each computed on first read."""
    return TableProfile(table, max_values_per_column=max_values_per_column, fd_min_score=fd_min_score)
