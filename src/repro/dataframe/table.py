"""The Table: an ordered collection of equally long named columns."""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType, is_null


class Table:
    """An in-memory relational table.

    A table is a list of :class:`Column` objects sharing one length, plus a
    name.  Rows are addressed by integer position; cells by
    ``(row_index, column_name)`` which is also the unit of evaluation used by
    the paper's precision/recall metrics.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        if columns:
            lengths = {len(c) for c in columns}
            if len(lengths) > 1:
                raise ValueError(f"Columns of table {name!r} have differing lengths: {lengths}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"Duplicate column names in table {name!r}: {names}")
        self.name = name
        self.columns: List[Column] = list(columns)
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        column_names: Sequence[str],
        rows: Iterable[Sequence[Any]],
        dtypes: Optional[Sequence[Optional[ColumnType]]] = None,
    ) -> "Table":
        """Build a table from row tuples in one transposing pass."""
        width = len(column_names)
        materialised = rows if isinstance(rows, list) else list(rows)
        for row in materialised:
            if len(row) != width:
                raise ValueError(
                    f"Row width {len(row)} does not match column count {width}"
                )
        # zip(*rows) transposes at C speed; no per-cell indexing pass.
        transposed = [list(v) for v in zip(*materialised)] if materialised else [[] for _ in column_names]
        columns = []
        for i, col_name in enumerate(column_names):
            dtype = dtypes[i] if dtypes is not None else None
            columns.append(Column(col_name, transposed[i], dtype))
        return cls(name, columns)

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Sequence[Any]]) -> "Table":
        """Build a table from a mapping of column name to values."""
        return cls(name, [Column(k, v) for k, v in data.items()])

    # -- basic protocol -------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._index

    def __getitem__(self, column_name: str) -> Column:
        return self.column(column_name)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.num_rows}, columns={self.column_names})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.column_names == other.column_names and all(
            a.values == b.values for a, b in zip(self.columns, other.columns)
        )

    # -- access ---------------------------------------------------------------
    def column(self, name: str) -> Column:
        if name not in self._index:
            raise KeyError(f"Table {self.name!r} has no column {name!r}; columns are {self.column_names}")
        return self.columns[self._index[name]]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def cell(self, row: int, column_name: str) -> Any:
        return self.column(column_name)[row]

    def row(self, index: int) -> Dict[str, Any]:
        return {c.name: c[index] for c in self.columns}

    def rows(self) -> Iterator[Dict[str, Any]]:
        for i in range(self.num_rows):
            yield self.row(i)

    def row_tuples(self) -> List[Tuple[Any, ...]]:
        if not self.columns:
            return []
        return list(zip(*(c.values for c in self.columns)))

    def itercolumns(self) -> Iterator[Column]:
        """Iterate the column handles in table order.

        The handles are the live :class:`Column` objects (not copies); hot
        paths iterate ``column.values`` directly instead of materialising
        ``row(i)`` dicts.
        """
        return iter(self.columns)

    def column_values(self, name: str) -> List[Any]:
        """The live value vector of one column — the columnar access path.

        Callers must treat the list as read-only; columns are immutable by
        convention.
        """
        return self.column(name).values

    # -- transformation (all return new tables) --------------------------------
    def copy(self, name: Optional[str] = None) -> "Table":
        return Table(name or self.name, [Column(c.name, list(c.values), c.dtype) for c in self.columns])

    def rename(self, name: str) -> "Table":
        return Table(name, self.columns)

    def select(self, column_names: Sequence[str]) -> "Table":
        return Table(self.name, [self.column(n) for n in column_names])

    def drop(self, column_names: Sequence[str]) -> "Table":
        dropped = set(column_names)
        return Table(self.name, [c for c in self.columns if c.name not in dropped])

    def with_column(self, column: Column) -> "Table":
        """Return a table with ``column`` added or replaced (matched by name)."""
        if column.name in self._index:
            cols = [column if c.name == column.name else c for c in self.columns]
        else:
            cols = list(self.columns) + [column]
        return Table(self.name, cols)

    def set_cell(self, row: int, column_name: str, value: Any) -> "Table":
        """Return a table with a single cell replaced."""
        col = self.column(column_name)
        values = list(col.values)
        values[row] = value
        return self.with_column(col.with_values(values))

    def take(self, indices: Sequence[int]) -> "Table":
        return Table(self.name, [c.take(indices) for c in self.columns])

    def head(self, n: int) -> "Table":
        return self.take(list(range(min(n, self.num_rows))))

    def concat_rows(self, other: "Table") -> "Table":
        return self.concat(other, check_types=False)

    def concat(self, other: "Table", check_types: bool = True) -> "Table":
        """Return a table with ``other``'s rows appended below this table's.

        The schemas must match: same column names in the same order, and —
        unless ``check_types`` is False — the same column types.  Column
        types are preserved (never re-inferred from the combined values),
        so concatenating typed micro-batches cannot silently widen a column.
        """
        if self.column_names != other.column_names:
            raise ValueError(
                f"Cannot concatenate tables with different columns: "
                f"{self.column_names} vs {other.column_names}"
            )
        if check_types:
            mismatched = [
                f"{a.name} ({a.dtype} vs {b.dtype})"
                for a, b in zip(self.columns, other.columns)
                if a.dtype is not b.dtype
            ]
            if mismatched:
                raise ValueError(
                    f"Cannot concatenate tables with mismatched column types: {', '.join(mismatched)}"
                )
        columns = [
            Column(a.name, list(a.values) + list(b.values), a.dtype)
            for a, b in zip(self.columns, other.columns)
        ]
        return Table(self.name, columns)

    def append_rows(self, rows: Iterable[Union[Mapping[str, Any], Sequence[Any]]]) -> "Table":
        """Return a table with ``rows`` appended (schema-checked, type-preserving).

        Each row is either a sequence matching the column order or a mapping
        keyed by column name (missing keys become NULL, unknown keys raise).
        Column types are kept as declared.
        """
        names = self.column_names
        name_set = set(names)
        new_values: List[List[Any]] = [list(c.values) for c in self.columns]
        for position, row in enumerate(rows):
            if isinstance(row, Mapping):
                unknown = [k for k in row if k not in name_set]
                if unknown:
                    raise ValueError(
                        f"Row {position} has keys {unknown} not in table columns {names}"
                    )
                seq = [row.get(n) for n in names]
            else:
                seq = list(row)
                if len(seq) != len(names):
                    raise ValueError(
                        f"Row {position} has width {len(seq)}, table has {len(names)} columns"
                    )
            for j, value in enumerate(seq):
                new_values[j].append(value)
        return Table(
            self.name,
            [Column(c.name, values, c.dtype) for c, values in zip(self.columns, new_values)],
        )

    # -- conversion -------------------------------------------------------------
    def to_dict(self) -> Dict[str, List[Any]]:
        return {c.name: list(c.values) for c in self.columns}

    def to_display(self, max_rows: int = 10) -> str:
        """Render a small ASCII preview, used by examples and the HTML report."""
        names = self.column_names
        rows = [[_fmt(self.cell(i, n)) for n in names] for i in range(min(max_rows, self.num_rows))]
        widths = [
            max(len(names[j]), *(len(r[j]) for r in rows)) if rows else len(names[j])
            for j in range(len(names))
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = "\n".join(" | ".join(r[j].ljust(widths[j]) for j in range(len(names))) for r in rows)
        footer = "" if self.num_rows <= max_rows else f"\n... ({self.num_rows} rows total)"
        return f"{header}\n{sep}\n{body}{footer}"


def _fmt(value: Any) -> str:
    if is_null(value):
        return "NULL"
    return str(value)
