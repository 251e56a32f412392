"""Per-column statistical profile."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType


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

    Value frequencies are counted over the column's memoised dictionary
    codes (:meth:`~repro.dataframe.column.Column.dictionary_codes`), the
    encoding FD discovery reads too.  Codes number the distinct strings in
    first-occurrence order, so the counts line up with ``distinct`` and tie
    in the order a per-row string ``Counter`` would meet them.
    """
    codes, distinct = column.dictionary_codes()
    code_counts = Counter(codes)
    null_count = code_counts.pop(-1, 0)
    counts = Counter(dict(zip(distinct, code_counts.values())))
    non_null = [v for v, code in zip(column.values, codes) if code >= 0] if null_count else column.values
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
    elif distinct:
        minimum = min(distinct)
        maximum = max(distinct)
    avg_length = None
    if non_null:
        avg_length = sum(len(text) * count for text, count in counts.items()) / len(non_null)
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
