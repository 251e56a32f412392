"""Benchmark evaluation conventions (paper §3.1, "Evaluation").

The paper points out that the standard benchmarks are ambiguous in three
ways and defines conventions so that no system is penalised for them:

* **Case sensitivity** — different letter cases are acceptable as long as the
  value is otherwise the same.
* **Column type** — values like ``"yes"``/``"no"`` are semantically boolean;
  Cocoon casts them to ``True``/``False`` while CSV-based systems cannot, so
  both representations are accepted.
* **DMV** — ``"N/A"``-style placeholders and real ``NULL`` are accepted
  interchangeably.

The Appendix B evaluation (Table 3) disables the type and DMV leniency and
counts those conversions as required repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import datetime as _dt
import math

from repro.dataframe.schema import is_null, parse_date
from repro.llm.knowledge.abbreviations import parse_duration_minutes
from repro.llm.knowledge.nullwords import is_disguised_missing
from repro.llm.knowledge.types import semantic_boolean


@dataclass(frozen=True)
class EvaluationConventions:
    """Which leniency rules apply when comparing a value to the ground truth.

    Case, whitespace, numeric and date leniency always apply.  ``extended``
    selects the Appendix B conventions, under which boolean, DMV and
    duration conversions are required repairs rather than equivalences.
    """

    extended: bool = False

    @classmethod
    def paper_main(cls) -> "EvaluationConventions":
        """Conventions of the main evaluation (Table 1)."""
        return cls()

    @classmethod
    def paper_extended(cls) -> "EvaluationConventions":
        """Conventions of the Appendix B evaluation (Table 3): type and DMV errors count."""
        return cls(extended=True)


def values_equivalent(a: object, b: object, conventions: Optional[EvaluationConventions] = None) -> bool:
    """True when ``a`` and ``b`` denote the same value under the conventions."""
    conv = conventions or EvaluationConventions.paper_main()
    a_null = _is_nullish(a, conv)
    b_null = _is_nullish(b, conv)
    if a_null and b_null:
        return True
    if a_null != b_null:
        return False
    if not conv.extended:
        a_bool = semantic_boolean(a) if not isinstance(a, bool) else a
        b_bool = semantic_boolean(b) if not isinstance(b, bool) else b
        if a_bool is not None and b_bool is not None:
            return a_bool == b_bool
    a_num = _as_number(a)
    b_num = _as_number(b)
    if a_num is not None and b_num is not None:
        return abs(a_num - b_num) < 1e-9
    if not conv.extended:
        a_dur = _as_duration_minutes(a)
        b_dur = _as_duration_minutes(b)
        if a_dur is not None and b_dur is not None and (_has_duration_unit(a) or _has_duration_unit(b)):
            return a_dur == b_dur
    a_date = _as_date(a)
    b_date = _as_date(b)
    if a_date is not None and b_date is not None:
        return a_date == b_date
    return _canonical_text(a) == _canonical_text(b)


def _is_nullish(value: object, conv: EvaluationConventions) -> bool:
    if is_null(value) or str(value).strip() == "":
        return True
    if not conv.extended and is_disguised_missing(value):
        return True
    return False


def _as_number(value: object) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value) if math.isfinite(float(value)) else None
    try:
        parsed = float(str(value).strip())
    except (TypeError, ValueError):
        return None
    # Strings like "inf"/"nan" parse as floats but are not numeric data values.
    return parsed if math.isfinite(parsed) else None


def _has_duration_unit(value: object) -> bool:
    text = str(value).lower()
    return any(unit in text for unit in ("min", "hr", "hour", "sec"))


def _as_duration_minutes(value: object) -> Optional[float]:
    """Minutes denoted by a value: either a duration string or a plain number."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    parsed = parse_duration_minutes(str(value))
    if parsed is not None:
        return float(parsed)
    return _as_number(value)


def _as_date(value: object):
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, (int, float, bool)):
        return None
    return parse_date(str(value))


def _canonical_text(value: object) -> str:
    return " ".join(str(value).split()).lower()
