"""Scalar functions for the SQL engine: ``REGEXP_FULL_MATCH`` alone.

The pattern-count oracle in the test suite filters on it; no cleaning
statement calls a function.  It follows SQL NULL semantics: a NULL argument
yields NULL.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Sequence

from repro.dataframe.schema import is_null
from repro.sql.errors import ExecutionError


def _to_str(value: Any) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float) and float(value).is_integer():
        return str(int(value))
    return str(value)


def _regexp_full_match(*args: Any) -> Any:
    if any(is_null(a) for a in args):
        return None
    value, pattern = args
    return re.fullmatch(pattern, _to_str(value)) is not None


SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "REGEXP_FULL_MATCH": _regexp_full_match,
}


def call_scalar(name: str, args: Sequence[Any]) -> Any:
    try:
        return SCALAR_FUNCTIONS[name](*args)
    except (ValueError, TypeError, re.error) as exc:
        raise ExecutionError(f"Error evaluating {name}({args!r}): {exc}") from exc
