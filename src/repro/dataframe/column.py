"""A single named, typed column of values."""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dataframe.schema import ColumnType, infer_storage_type, is_null


class Column:
    """A named sequence of values with a logical type.

    Values are stored in a plain Python list; NULL is ``None``.  Columns are
    immutable by convention — operations return new columns — so tables
    share them: a SQL projection that passes a column through unchanged puts
    the same object in its output.  :meth:`Table.copy` gives an independent
    copy.

    Sharing is what makes :meth:`dictionary_codes` worth memoising: every
    table version that holds this column reuses its one encoding.  So
    ``values`` must not change once the codes have been read; build a new
    column instead.
    """

    __slots__ = ("name", "values", "dtype", "_codes")

    def __init__(self, name: str, values: Sequence[Any], dtype: Optional[ColumnType] = None):
        self.name = name
        self.values: List[Any] = list(values)
        self.dtype = dtype if dtype is not None else infer_storage_type(self.values)
        self._codes: Optional[Tuple[List[int], List[str]]] = None

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.name == other.name and self.values == other.values

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.values[:5])
        suffix = ", ..." if len(self.values) > 5 else ""
        return f"Column({self.name!r}, {self.dtype}, [{preview}{suffix}])"

    # -- construction helpers ----------------------------------------------
    def rename(self, new_name: str) -> "Column":
        return Column(new_name, self.values, self.dtype)

    def with_values(self, values: Sequence[Any], dtype: Optional[ColumnType] = None) -> "Column":
        return Column(self.name, values, dtype if dtype is not None else self.dtype)

    def take(self, indices: Iterable[int]) -> "Column":
        """Gather by index array: a new column holding ``values[i]`` per index."""
        vals = self.values
        return Column(self.name, [vals[i] for i in indices], self.dtype)

    # -- statistics used throughout profiling -------------------------------
    def null_count(self) -> int:
        return sum(1 for v in self.values if is_null(v))

    def null_fraction(self) -> float:
        if not self.values:
            return 0.0
        return self.null_count() / len(self.values)

    def non_null(self) -> List[Any]:
        return [v for v in self.values if not is_null(v)]

    def distinct(self) -> List[Any]:
        seen = set()
        out: List[Any] = []
        for value in self.values:
            key = ("\0null",) if is_null(value) else value
            if key in seen:
                continue
            seen.add(key)
            out.append(None if is_null(value) else value)
        return out

    def distinct_count(self) -> int:
        return len(self.distinct())

    def unique_ratio(self) -> float:
        """Fraction of rows holding a distinct non-null value (1.0 = key-like)."""
        non_null = self.non_null()
        if not non_null:
            return 0.0
        return len(set(map(str, non_null))) / len(non_null)

    def dictionary_codes(self) -> Tuple[List[int], List[str]]:
        """``(codes, distinct)``: per row the index of ``str(value)`` in ``distinct``.

        ``distinct`` lists the stringified non-null values in order of first
        occurrence; a NULL (or NaN) cell is coded ``-1``.  Computed on the
        first read and memoised.
        """
        if self._codes is None:
            index: Dict[str, int] = {}
            codes = []
            for value in self.values:
                if is_null(value):
                    codes.append(-1)
                else:
                    codes.append(index.setdefault(str(value), len(index)))
            self._codes = (codes, list(index))
        return self._codes

    def value_counts(self) -> Counter:
        return Counter(str(v) for v in self.values if not is_null(v))
