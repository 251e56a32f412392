"""Semantic column-type knowledge.

Covers the paper's "Column Type" issue: values like ``"yes"``/``"no"`` are
semantically boolean even though they arrive as VARCHAR; identifiers should
not be averaged; ages, scores and percentages have real-world plausible
ranges that statistics alone cannot know.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Optional, Tuple

TRUE_WORDS = {"yes", "y", "true", "t", "1"}
FALSE_WORDS = {"no", "n", "false", "f", "0"}
BOOLEAN_WORDS = TRUE_WORDS | FALSE_WORDS


def semantic_boolean(value: object) -> Optional[bool]:
    """Interpret a value as a semantic boolean, or return None."""
    if value is None:
        return None
    text = str(value).strip().lower()
    if text in TRUE_WORDS:
        return True
    if text in FALSE_WORDS:
        return False
    return None


_ID_COLUMN_RE = re.compile(
    r"(^id$|_id$|^id_|identifier|provider.*number|zip|phone|fax|ssn|code$|number$)",
    re.IGNORECASE,
)


def looks_like_identifier_column(column_name: str) -> bool:
    """True when the column name suggests an identifier/code (keep as text, never average)."""
    return _ID_COLUMN_RE.search(column_name.replace(" ", "_")) is not None


# Column-name keyword → (plausible minimum, plausible maximum).
# These encode the world knowledge a model applies when reviewing numeric
# ranges ("a patient age of 851 is impossible", "a score is 0..100").
_NUMERIC_RANGE_RULES: Dict[str, Tuple[float, float]] = {
    "age": (0, 120),
    "score": (0, 100),
    "percent": (0, 100),
    "percentage": (0, 100),
    "rate": (0, 100),
    "rating": (0, 10),
    "abv": (0, 70),
    "ibu": (0, 150),
    "ounces": (0, 128),
    "oz": (0, 128),
    "duration": (0, 1000),
    "minutes": (0, 1000),
    "runtime": (0, 1000),
    "year": (1800, 2100),
    "price": (0, 1_000_000),
    "salary": (0, 10_000_000),
    "temperature": (-100, 150),
    "weight": (0, 1500),
    "height": (0, 300),
    "latitude": (-90, 90),
    "longitude": (-180, 180),
    "votes": (0, 10_000_000_000),
    "delay": (-60, 3000),
}


def expected_numeric_range(column_name: str) -> Optional[Tuple[float, float]]:
    """Return the plausible (min, max) for a numeric column, judged from its name."""
    lowered = column_name.lower()
    # Count-like columns (vote counts, review counts, sample sizes) are open-ended
    # and must not inherit the range of a keyword they happen to contain
    # ("rating_count" is a count, not a rating).
    if any(token in lowered for token in ("count", "votes", "num_", "_num", "total")):
        return (0, 1e12)
    for keyword, bounds in _NUMERIC_RANGE_RULES.items():
        if keyword in lowered:
            return bounds
    return None


_DATE_COLUMN_RE = re.compile(r"(date|_dt$|^dt_|birthday|dob)", re.IGNORECASE)


def looks_like_date_column(column_name: str) -> bool:
    return _DATE_COLUMN_RE.search(column_name) is not None


def boolean_fraction(values: Iterable[object]) -> float:
    """Fraction of non-null values interpretable as semantic booleans."""
    total = 0
    hits = 0
    for value in values:
        if value is None or str(value).strip() == "":
            continue
        total += 1
        if semantic_boolean(value) is not None:
            hits += 1
    return hits / total if total else 0.0
