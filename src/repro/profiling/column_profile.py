"""Per-column statistical profile."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType, is_null


@dataclass
class ColumnProfile:
    """Statistical summary of one column, used as LLM prompt context."""

    name: str
    dtype: ColumnType
    row_count: int
    null_count: int
    distinct_count: int
    unique_ratio: float
    top_values: List[Tuple[str, int]] = field(default_factory=list)
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None
    mean: Optional[float] = None
    avg_length: Optional[float] = None

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    @property
    def is_numeric(self) -> bool:
        return self.dtype.is_numeric

    def frequent_values(self, limit: int) -> List[Tuple[str, int]]:
        """The ``limit`` most frequent values (the paper samples 1000 by default)."""
        return self.top_values[:limit]


def profile_column(column: Column, max_values: int = 1000) -> ColumnProfile:
    """Compute the statistical profile of a column.

    ``max_values`` bounds how many distinct values are retained (ordered by
    frequency), mirroring the sampling the paper applies before prompting.

    The column's value vector is walked **once**: null count, the non-null
    values and the frequency counter all come out of the same pass (the
    profiler used to re-scan the vector five times per column).  The derived
    statistics are unchanged: the counter keys are exactly the distinct
    non-null strings, so ``unique_ratio`` and ``distinct_count`` fall out of
    ``len(counts)`` instead of extra set-building passes.
    """
    counts: Counter = Counter()
    non_null: List[Any] = []
    null_count = 0
    for value in column.values:
        if is_null(value):
            null_count += 1
        else:
            non_null.append(value)
            counts[str(value)] += 1
    top = counts.most_common(max_values)
    numeric = [v for v in non_null if isinstance(v, (int, float)) and not isinstance(v, bool)]
    minimum: Optional[Any] = None
    maximum: Optional[Any] = None
    mean: Optional[float] = None
    if numeric:
        minimum = min(numeric)
        maximum = max(numeric)
        # fsum: the correctly-rounded true sum, so the mean does not depend
        # on the order the values are added in.
        mean = math.fsum(float(v) for v in numeric) / len(numeric)
    elif non_null:
        try:
            as_strings = [str(v) for v in non_null]
            minimum = min(as_strings)
            maximum = max(as_strings)
        except TypeError:  # pragma: no cover - mixed uncomparable values
            minimum = maximum = None
    avg_length = None
    if non_null:
        avg_length = sum(len(str(v)) for v in non_null) / len(non_null)
    return ColumnProfile(
        name=column.name,
        dtype=column.dtype,
        row_count=len(column),
        null_count=null_count,
        distinct_count=len(counts) + (1 if null_count else 0),
        unique_ratio=(len(counts) / len(non_null)) if non_null else 0.0,
        top_values=[(value, count) for value, count in top],
        minimum=minimum,
        maximum=maximum,
        mean=mean,
        avg_length=avg_length,
    )
