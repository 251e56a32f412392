"""Incremental column counts for the streaming layer's drift detector.

:func:`~repro.profiling.column_profile.profile_column` summarises a whole
column in one pass.  A stream cannot afford that: every micro-batch would
re-read all rows seen so far.  :class:`MergeableColumnProfile` keeps only
what drift detection reads — row, null, per-value and per-shape counts, and
the ``TOP_K`` most frequent values — so a batch costs O(batch).

The top values are kept as the counts fold, the way the Space-Saving
stream summary (Metwally et al., ICDT 2005) keeps its monitored counters:
each occurrence raises one count by one, so the only change to the top is
that value taking the last member's place once its count passes it (ties
go to the earlier first occurrence, as in ``most_common``).  Unlike
Space-Saving, ``counts`` keeps every value's exact count, so the top is
exact rather than approximate.

The defining property, pinned by a hypothesis test
(``tests/property/test_mergeable_profiles.py``): for any split of a column
into ordered batches, folding the batches in row order yields the row
count, null count and ``counts.most_common()`` that ``profile_column``
computes on the whole column, including the first-occurrence tie-break of
its ``top_values``; :meth:`MergeableColumnProfile.top` equals
``counts.most_common(TOP_K)`` on the whole column; ``shapes`` equals the
shape mix of the whole column, insertion order included.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.dataframe.column import Column
from repro.dataframe.schema import is_null
from repro.llm.semantic import value_shape

#: How many of a column's most frequent values a profile keeps ranked.
TOP_K = 20


class MergeableColumnProfile:
    """Row, null, per-value and per-shape counts of one column, folded batch by batch."""

    __slots__ = (
        "name", "row_count", "null_count", "counts", "shapes", "_shape_of", "_rank", "_top", "_least",
    )

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
        # str(value) -> its first-occurrence index, most_common's tie-break.
        self._rank: Dict[str, int] = {}
        # The values most_common(TOP_K) returns, and the last of them once
        # there are TOP_K (None before).
        self._top: Set[str] = set()
        self._least: Optional[str] = None

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
        counts, shapes, shape_of, rank, top = (
            self.counts, self.shapes, self._shape_of, self._rank, self._top,
        )
        least = self._least
        for value in values:
            self.row_count += 1
            if is_null(value):
                self.null_count += 1
                continue
            text = str(value)
            count = counts[text] + 1
            counts[text] = count
            if count == 1:
                rank[text] = len(rank)
            shape = shape_of.get(text)
            if shape is None:
                # Interned: many values share a shape, and the memo keeps one copy.
                shape = shape_of[text] = sys.intern(value_shape(text))
            shapes[shape] += 1
            # Only this value's count moved, so the top changes only if it
            # was the last member (the order within may change) or it now
            # outranks the last member (it takes that member's place).
            if text in top:
                if text == least:
                    least = self._last_of_top()
            elif least is None:
                top.add(text)
                if len(top) == TOP_K:
                    least = self._last_of_top()
            elif count > counts[least] or (count == counts[least] and rank[text] < rank[least]):
                top.discard(least)
                top.add(text)
                least = self._last_of_top()
        self._least = least
        return self

    def _last_of_top(self) -> str:
        """The top value most_common ranks last: fewest occurrences, latest first occurrence."""
        counts, rank = self.counts, self._rank
        return min(self._top, key=lambda text: (counts[text], -rank[text]))

    def top(self) -> List[Tuple[str, int]]:
        """``counts.most_common(TOP_K)``, without scanning ``counts``."""
        counts, rank = self.counts, self._rank
        ranked = sorted(self._top, key=lambda text: (-counts[text], rank[text]))
        return [(text, counts[text]) for text in ranked]

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
