"""Parity oracle for storage-type inference: the per-value classification.

:func:`repro.dataframe.schema.infer_storage_type` decides from the set of
runtime types and looks at cells only for floats and strings.  The function
below is the loop it replaced, copied unchanged: it classifies every value
one by one.  ``test_storage_type.py`` holds the new version to it.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Iterable

from repro.dataframe.schema import ColumnType, is_null


def infer_storage_type_per_value(values: Iterable[Any]) -> ColumnType:
    """Infer a column type from the *runtime* Python types of the values.

    Unlike :func:`infer_type`, digit strings stay VARCHAR: this describes how
    the values are currently stored, which is what the database catalog
    reports and what the column-type cleaning operator reasons about.
    """
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
