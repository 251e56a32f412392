"""Incremental column counts for the streaming layer's drift detector.

:func:`~repro.profiling.column_profile.profile_column` summarises a whole
column in one pass.  A stream cannot afford that: every micro-batch would
re-read all rows seen so far.  :class:`MergeableColumnProfile` keeps only
what drift detection reads — row, null and per-value counts — so a batch
costs O(batch).

The defining property, pinned by a hypothesis test
(``tests/property/test_mergeable_profiles.py``): for any split of a column
into ordered batches, folding the batches in row order yields the row
count, null count and ``counts.most_common()`` that ``profile_column``
computes on the whole column, including the first-occurrence tie-break of
its ``top_values``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Union

from repro.dataframe.column import Column
from repro.dataframe.schema import is_null


class MergeableColumnProfile:
    """Row, null and per-value counts of one column, folded batch by batch."""

    __slots__ = ("name", "row_count", "null_count", "counts")

    def __init__(self, name: str):
        self.name = name
        self.row_count = 0
        self.null_count = 0
        # str(value) -> occurrences, in first-occurrence order (drives the
        # most_common tie-break exactly like Column.value_counts()).
        self.counts: Counter = Counter()

    def update(self, batch: Union[Column, Iterable[Any]]) -> "MergeableColumnProfile":
        """Fold one batch of values (a Column or any iterable) into the counts."""
        if isinstance(batch, Column):
            if batch.name != self.name:
                raise ValueError(
                    f"Cannot update profile of column {self.name!r} with column {batch.name!r}"
                )
            values: Iterable[Any] = batch.values
        else:
            values = batch
        counts = self.counts
        for value in values:
            self.row_count += 1
            if is_null(value):
                self.null_count += 1
            else:
                counts[str(value)] += 1
        return self

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    @classmethod
    def of(cls, column: Column) -> "MergeableColumnProfile":
        """Count a whole column in one go."""
        return cls(column.name).update(column)
