"""Column type system and value coercion.

The mini database (``repro.sql``) and the cleaning pipeline need a small,
predictable type lattice.  We support the types that appear in the paper's
benchmarks and cleaning operators: VARCHAR, INTEGER, DOUBLE, BOOLEAN, DATE
and TIMESTAMP.  ``NULL`` is represented by Python ``None`` in every column.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
import re
from collections import Counter
from typing import Any, Iterable, Optional


class ColumnType(enum.Enum):
    """Logical column types understood by the engine."""

    VARCHAR = "VARCHAR"
    INTEGER = "INTEGER"
    DOUBLE = "DOUBLE"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INTEGER, ColumnType.DOUBLE)

_TYPE_ALIASES = {
    "VARCHAR": ColumnType.VARCHAR,
    "TEXT": ColumnType.VARCHAR,
    "STRING": ColumnType.VARCHAR,
    "CHAR": ColumnType.VARCHAR,
    "INT": ColumnType.INTEGER,
    "INTEGER": ColumnType.INTEGER,
    "BIGINT": ColumnType.INTEGER,
    "SMALLINT": ColumnType.INTEGER,
    "DOUBLE": ColumnType.DOUBLE,
    "FLOAT": ColumnType.DOUBLE,
    "REAL": ColumnType.DOUBLE,
    "DECIMAL": ColumnType.DOUBLE,
    "NUMERIC": ColumnType.DOUBLE,
    "BOOL": ColumnType.BOOLEAN,
    "BOOLEAN": ColumnType.BOOLEAN,
    "DATE": ColumnType.DATE,
    "TIMESTAMP": ColumnType.TIMESTAMP,
    "DATETIME": ColumnType.TIMESTAMP,
}


def parse_type(name: str) -> ColumnType:
    """Resolve a SQL type name (possibly an alias) to a :class:`ColumnType`.

    Raises ``ValueError`` for unknown names.
    """
    key = name.strip().upper()
    # Strip parameterisation such as VARCHAR(255) or DECIMAL(10, 2).
    key = re.sub(r"\(.*\)$", "", key).strip()
    if key not in _TYPE_ALIASES:
        raise ValueError(f"Unknown SQL type: {name!r}")
    return _TYPE_ALIASES[key]


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_DATE_FORMATS = ("%Y-%m-%d", "%m/%d/%Y", "%d/%m/%Y", "%Y/%m/%d", "%m-%d-%Y")
_TIMESTAMP_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%m/%d/%Y %H:%M",
    "%Y-%m-%d %H:%M",
)
_TRUE_STRINGS = {"true", "t", "yes", "y", "1"}
_FALSE_STRINGS = {"false", "f", "no", "n", "0"}


def is_null(value: Any) -> bool:
    """Return True for SQL NULL semantics (None or NaN)."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def parse_date(text: str) -> Optional[_dt.date]:
    """Parse a date string using the common formats seen in the benchmarks."""
    stripped = text.strip()
    if not _has_separator(stripped):
        return None
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(stripped, fmt).date()
        except ValueError:
            continue
    return None


def parse_timestamp(text: str) -> Optional[_dt.datetime]:
    """Parse a timestamp string using the common formats."""
    stripped = text.strip()
    if not _has_separator(stripped):
        return None
    for fmt in _TIMESTAMP_FORMATS:
        try:
            return _dt.datetime.strptime(stripped, fmt)
        except ValueError:
            continue
    return None


def _has_separator(text: str) -> bool:
    # Every date and timestamp format has a literal ``-`` or ``/``, which
    # strptime must match: text with neither fails every format, so the
    # parsers return None without raising a ValueError per format.
    return "-" in text or "/" in text


#: The runtime types whose storage type follows from the type alone.
_STORAGE_TYPES = {
    bool: ColumnType.BOOLEAN,
    int: ColumnType.INTEGER,
    float: ColumnType.DOUBLE,
    _dt.datetime: ColumnType.TIMESTAMP,
    _dt.date: ColumnType.DATE,
    str: ColumnType.VARCHAR,
}


def infer_storage_type(values: Iterable[Any]) -> ColumnType:
    """Infer a column type from the *runtime* Python types of the values.

    Unlike :func:`infer_type`, digit strings stay VARCHAR: this describes how
    the values are currently stored, which is what the database catalog
    reports and what the column-type cleaning operator reasons about.

    NULL (None or NaN) and ``""`` are skipped.  When every value is ``None``
    or of one of the six builtin types above, the answer follows from the set
    of types: only a ``float`` (is one not NaN?) and a ``str`` (is one not
    empty?) need a look at the cells.  Any other type — a subclass, an
    ``IntEnum``, a ``Decimal`` — is classified value by value.
    """
    values = values if isinstance(values, list) else list(values)
    counts = Counter(map(type, values))
    counts.pop(type(None), None)
    if counts.keys() <= _STORAGE_TYPES.keys():
        saw = {_STORAGE_TYPES[kind] for kind in counts}
        if float in counts and not any(v == v for v in values if type(v) is float):
            saw.discard(ColumnType.DOUBLE)
        if str in counts and values.count("") == counts[str]:
            saw.discard(ColumnType.VARCHAR)
    else:
        saw = _storage_types_per_value(values)
    if not saw:
        return ColumnType.VARCHAR
    if saw == {ColumnType.BOOLEAN}:
        return ColumnType.BOOLEAN
    if saw <= {ColumnType.INTEGER}:
        return ColumnType.INTEGER
    if saw <= {ColumnType.INTEGER, ColumnType.DOUBLE}:
        return ColumnType.DOUBLE
    if saw == {ColumnType.DATE}:
        return ColumnType.DATE
    if saw <= {ColumnType.DATE, ColumnType.TIMESTAMP}:
        return ColumnType.TIMESTAMP
    return ColumnType.VARCHAR


def _storage_types_per_value(values: Iterable[Any]) -> set:
    """The storage types of the non-NULL, non-``""`` values, classified one by one."""
    saw: set = set()
    for value in values:
        if is_null(value) or value == "":
            continue
        if isinstance(value, bool):
            saw.add(ColumnType.BOOLEAN)
        elif isinstance(value, int):
            saw.add(ColumnType.INTEGER)
        elif isinstance(value, float):
            saw.add(ColumnType.DOUBLE)
        elif isinstance(value, _dt.datetime):
            saw.add(ColumnType.TIMESTAMP)
        elif isinstance(value, _dt.date):
            saw.add(ColumnType.DATE)
        else:
            saw.add(ColumnType.VARCHAR)
    return saw


def infer_type(values: Iterable[Any]) -> ColumnType:
    """Infer the narrowest :class:`ColumnType` that fits all non-null values.

    The lattice is BOOLEAN < INTEGER < DOUBLE < DATE/TIMESTAMP < VARCHAR; any
    value that fails a narrower interpretation widens the result.  Empty or
    all-null input defaults to VARCHAR.
    """
    saw_value = False
    could_be = {
        ColumnType.BOOLEAN: True,
        ColumnType.INTEGER: True,
        ColumnType.DOUBLE: True,
        ColumnType.DATE: True,
        ColumnType.TIMESTAMP: True,
    }
    for value in values:
        if is_null(value) or value == "":
            continue
        saw_value = True
        if isinstance(value, bool):
            could_be[ColumnType.INTEGER] = False
            could_be[ColumnType.DOUBLE] = False
            could_be[ColumnType.DATE] = False
            could_be[ColumnType.TIMESTAMP] = False
            continue
        if isinstance(value, int):
            could_be[ColumnType.BOOLEAN] = could_be[ColumnType.BOOLEAN] and value in (0, 1)
            could_be[ColumnType.DATE] = False
            could_be[ColumnType.TIMESTAMP] = False
            continue
        if isinstance(value, float):
            could_be[ColumnType.BOOLEAN] = False
            could_be[ColumnType.INTEGER] = could_be[ColumnType.INTEGER] and float(value).is_integer()
            could_be[ColumnType.DATE] = False
            could_be[ColumnType.TIMESTAMP] = False
            continue
        if isinstance(value, _dt.datetime):
            could_be[ColumnType.BOOLEAN] = False
            could_be[ColumnType.INTEGER] = False
            could_be[ColumnType.DOUBLE] = False
            could_be[ColumnType.DATE] = False
            continue
        if isinstance(value, _dt.date):
            could_be[ColumnType.BOOLEAN] = False
            could_be[ColumnType.INTEGER] = False
            could_be[ColumnType.DOUBLE] = False
            could_be[ColumnType.TIMESTAMP] = False
            continue
        text = str(value).strip()
        lowered = text.lower()
        if lowered not in _TRUE_STRINGS and lowered not in _FALSE_STRINGS:
            could_be[ColumnType.BOOLEAN] = False
        if not _INT_RE.match(text):
            could_be[ColumnType.INTEGER] = False
        if not _FLOAT_RE.match(text):
            could_be[ColumnType.DOUBLE] = False
        if parse_date(text) is None:
            could_be[ColumnType.DATE] = False
        if parse_timestamp(text) is None:
            could_be[ColumnType.TIMESTAMP] = False
    if not saw_value:
        return ColumnType.VARCHAR
    for candidate in (
        ColumnType.BOOLEAN,
        ColumnType.INTEGER,
        ColumnType.DOUBLE,
        ColumnType.DATE,
        ColumnType.TIMESTAMP,
    ):
        if could_be[candidate]:
            return candidate
    return ColumnType.VARCHAR


def coerce_value(value: Any, target: ColumnType) -> Any:
    """Cast ``value`` to ``target``, returning ``None`` when the cast fails.

    This mirrors a forgiving ``TRY_CAST``: the cleaning pipeline relies on
    failed casts becoming NULL rather than raising, exactly like the SQL
    ``CAST``-with-NULLIF pattern the paper's output queries use.
    """
    if is_null(value) or value == "":
        return None
    try:
        if target is ColumnType.VARCHAR:
            if isinstance(value, bool):
                return "True" if value else "False"
            if isinstance(value, float) and float(value).is_integer():
                return str(int(value))
            return str(value)
        if target is ColumnType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            text = str(value).strip()
            if _INT_RE.match(text):
                return int(text)
            if _FLOAT_RE.match(text):
                return int(float(text))
            return None
        if target is ColumnType.DOUBLE:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            text = str(value).strip()
            if _FLOAT_RE.match(text):
                return float(text)
            return None
        if target is ColumnType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            lowered = str(value).strip().lower()
            if lowered in _TRUE_STRINGS:
                return True
            if lowered in _FALSE_STRINGS:
                return False
            return None
        if target is ColumnType.DATE:
            if isinstance(value, _dt.datetime):
                return value.date()
            if isinstance(value, _dt.date):
                return value
            return parse_date(str(value))
        if target is ColumnType.TIMESTAMP:
            if isinstance(value, _dt.datetime):
                return value
            if isinstance(value, _dt.date):
                return _dt.datetime(value.year, value.month, value.day)
            parsed = parse_timestamp(str(value))
            if parsed is None:
                as_date = parse_date(str(value))
                if as_date is not None:
                    return _dt.datetime(as_date.year, as_date.month, as_date.day)
            return parsed
    except (ValueError, TypeError, OverflowError):
        return None
    raise ValueError(f"Unhandled target type: {target}")  # pragma: no cover
