"""Value comparison semantics shared across the SQL engine.

One definition of "equal", "less than" and "sorts before" serves the whole
engine: ``=`` / ``<`` / ``BETWEEN`` / ORDER BY in :mod:`repro.sql.executor`
and its compiled closures, and the MIN/MAX aggregates in
:mod:`repro.sql.functions`.  Before this module existed the aggregates
compared with raw ``<`` / ``>``, so a mixed ``str``/``int`` column raised
``TypeError`` and a NaN that arrived first stuck forever (every
``value < nan`` is False) — MIN/MAX disagreed with ORDER BY over the very
same column.

The rules, in order:

* Exactly one numeric operand coerces a numeric-looking *finite* string on
  the other side (``7 = '7'`` holds; ``'nan' >= 5`` does not — non-finite
  strings are text, matching PR 5's comparison fix).
* Otherwise values compare textually via ``str()``.
* The total order puts NaN after every real value in either direction, so
  sort keys and MIN/MAX stay trichotomous over floats including NaN/inf.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

from repro.dataframe.schema import is_null


def to_num(v: Any) -> Optional[float]:
    """The operand as a float when it already is a number (bools count)."""
    if isinstance(v, bool):
        return float(v)
    if isinstance(v, (int, float)):
        return float(v)
    return None


def parse_num(v: Any) -> Optional[float]:
    """A numeric-looking string as a finite float, else None.

    Python's float() accepts 'nan'/'inf'/'Infinity', but SQL numeric
    literals don't — treating those strings as numbers made
    ``'nan' >= 5`` true (NaN probes all compare False, see compare_values).
    """
    try:
        parsed = float(str(v).strip())
    except (TypeError, ValueError):
        return None
    return parsed if math.isfinite(parsed) else None


def numeric_pair(left: Any, right: Any) -> Optional[Tuple[float, float]]:
    """Return both operands as floats when a numeric comparison makes sense.

    When exactly one side is a number and the other is a numeric-looking
    string, the string is implicitly cast — matching the behaviour of the SQL
    engines the paper targets.
    """
    a, b = to_num(left), to_num(right)
    if a is not None and b is not None:
        return a, b
    if a is not None and b is None:
        parsed = parse_num(right)
        if parsed is not None:
            return a, parsed
    if b is not None and a is None:
        parsed = parse_num(left)
        if parsed is not None:
            return parsed, b
    return None


def sql_equal(left: Any, right: Any) -> bool:
    """SQL ``=`` over non-null operands: numeric when sensible, else textual."""
    pair = numeric_pair(left, right)
    if pair is not None:
        return pair[0] == pair[1]
    return str(left) == str(right)


def compare_values(left: Any, right: Any) -> Optional[int]:
    """Deterministic total order: -1/0/1, with NaN after every other value.

    NaN operands would otherwise fail all three probes below and read as
    "equal to everything", collapsing ``>=``/``<=`` and ORDER BY into
    nonsense.  NULL-semantics normally filter NaN out before it gets here,
    but direct float NaN (or a non-finite arithmetic result) must still get
    a trichotomous answer.
    """
    pair = numeric_pair(left, right)
    if pair is not None:
        a, b = pair
    else:
        try:
            a, b = left, right
            if a < b or a > b or a == b:
                pass
        except TypeError:
            a, b = str(left), str(right)
    a_nan = isinstance(a, float) and math.isnan(a)
    b_nan = isinstance(b, float) and math.isnan(b)
    if a_nan or b_nan:
        if a_nan and b_nan:
            return 0
        return 1 if a_nan else -1
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def sql_between(value: Any, low: Any, high: Any, negated: bool = False) -> Optional[bool]:
    """SQL ``value [NOT] BETWEEN low AND high``; NULL when any operand is NULL.

    Operands Python can order keep their native answer (exact int/float
    comparison, textual str/str).  A pair Python cannot order, such as
    ``5 BETWEEN 1 AND '10'``, compares under :func:`compare_values`, the rule
    ``<=`` and ``>=`` use, instead of raising ``TypeError``.
    """
    if is_null(value) or is_null(low) or is_null(high):
        return None
    try:
        inside = low <= value <= high
    except TypeError:
        inside = compare_values(low, value) <= 0 and compare_values(value, high) <= 0
    return (not inside) if negated else inside
