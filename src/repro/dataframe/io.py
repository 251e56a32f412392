"""CSV input/output for :class:`~repro.dataframe.table.Table`.

The public dirty-data benchmarks the paper evaluates on are distributed as
CSV files; the baselines (CleanAgent, RetClean, Raha/Baran) also consume and
produce CSV.  This module implements round-trippable CSV I/O with optional
type inference on read.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType, coerce_value, infer_type, is_null
from repro.dataframe.table import Table

_NULL_TOKENS = {""}


def read_csv_text(
    text: str,
    name: str = "table",
    infer_types: bool = True,
    null_tokens: Optional[Sequence[str]] = None,
) -> Table:
    """Parse CSV text into a :class:`Table`.

    ``null_tokens`` lists strings to treat as NULL on read (by default only
    the empty string — disguised missing values like ``"N/A"`` are kept as
    data, since detecting them is part of the cleaning task).
    """
    nulls = set(null_tokens) if null_tokens is not None else set(_NULL_TOKENS)
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        return Table(name, [])
    header = rows[0]
    data_rows = rows[1:]
    columns = []
    for i, col_name in enumerate(header):
        raw = [row[i] if i < len(row) else "" for row in data_rows]
        values = [None if v in nulls else v for v in raw]
        if infer_types:
            dtype = infer_type(values)
            if dtype is not ColumnType.VARCHAR:
                values = [coerce_value(v, dtype) for v in values]
            columns.append(Column(col_name, values, dtype))
        else:
            columns.append(Column(col_name, values, ColumnType.VARCHAR))
    return Table(name, columns)


def read_csv(
    path: Union[str, Path],
    name: Optional[str] = None,
    infer_types: bool = True,
    null_tokens: Optional[Sequence[str]] = None,
) -> Table:
    """Read a CSV file from disk."""
    path = Path(path)
    table_name = name if name is not None else path.stem
    with open(path, newline="", encoding="utf-8") as f:
        return read_csv_text(f.read(), name=table_name, infer_types=infer_types, null_tokens=null_tokens)


def to_csv_text(table: Table) -> str:
    """Serialise a table to CSV text; NULL becomes the empty string."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.column_names)
    for row in table.row_tuples():
        writer.writerow(["" if is_null(v) else _to_text(v) for v in row])
    return buf.getvalue()


def write_csv(table: Table, path: Union[str, Path]) -> None:
    """Write a table to a CSV file."""
    Path(path).write_text(to_csv_text(table), encoding="utf-8")


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically: a temporary file, then :func:`os.replace`.

    A reader sees the old file or the new one, never a truncated one; the
    temporary file is removed when the write fails.  Missing parent
    directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _to_text(value: object) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float) and float(value).is_integer():
        return str(int(value))
    return str(value)
