"""Incremental column counts for the streaming layer's drift detector.

:func:`~repro.profiling.column_profile.profile_column` summarises a whole
column in one pass.  A stream cannot afford that: every micro-batch would
re-read all rows seen so far.  :class:`MergeableColumnProfile` keeps only
what drift detection reads — row, null, per-value and per-shape counts — so
a batch costs O(batch).

The defining property, pinned by a hypothesis test
(``tests/property/test_mergeable_profiles.py``): for any split of a column
into ordered batches, folding the batches in row order yields the row
count, null count and ``counts.most_common()`` that ``profile_column``
computes on the whole column, including the first-occurrence tie-break of
its ``top_values``; ``shapes`` equals the shape mix of the whole column,
insertion order included.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Dict, Iterable, Union

from repro.dataframe.column import Column
from repro.dataframe.schema import is_null
from repro.llm.semantic import value_shape


class MergeableColumnProfile:
    """Row, null, per-value and per-shape counts of one column, folded batch by batch."""

    __slots__ = ("name", "row_count", "null_count", "counts", "shapes", "_shape_of")

    def __init__(self, name: str):
        self.name = name
        self.row_count = 0
        self.null_count = 0
        # str(value) -> occurrences, in first-occurrence order (drives the
        # most_common tie-break exactly like Column.value_counts()).
        self.counts: Counter = Counter()
        # value_shape(str(value)) -> occurrences, in the order the shapes'
        # first values first occur: the order a scan of ``counts`` meets them.
        self.shapes: Counter = Counter()
        # str(value) -> its shape: each distinct value is shaped once.
        self._shape_of: Dict[str, str] = {}

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
        counts, shapes, shape_of = self.counts, self.shapes, self._shape_of
        for value in values:
            self.row_count += 1
            if is_null(value):
                self.null_count += 1
                continue
            text = str(value)
            counts[text] += 1
            shape = shape_of.get(text)
            if shape is None:
                # Interned: many values share a shape, and the memo keeps one copy.
                shape = shape_of[text] = sys.intern(value_shape(text))
            shapes[shape] += 1
        return self

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    @classmethod
    def of(cls, column: Column) -> "MergeableColumnProfile":
        """Count a whole column in one go."""
        return cls(column.name).update(column)

    def prefix(self, column: Column) -> "MergeableColumnProfile":
        """Count ``column`` — rows this profile already folded — from scratch,
        reusing this profile's value shapes instead of recomputing them."""
        profile = MergeableColumnProfile(column.name)
        profile._shape_of = self._shape_of
        return profile.update(column)
