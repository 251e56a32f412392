"""Parity oracles for the pattern helpers.

The pattern-outlier operator counts how many values each model-proposed
pattern covers with :func:`repro.profiling.patterns.pattern_counts`.
:func:`pattern_counts_sql` is the SQL verification it replaced, its query
loop copied unchanged: one ``COUNT(*)`` per pattern, each excluding the rows
an earlier pattern matched.  ``test_pattern_counts.py`` holds
``pattern_counts`` to it.

The three helpers now match each distinct checked text once.  The
``*_per_row`` functions are the helpers before that change, copied
unchanged: they match every checked value.  ``test_pattern_helpers.py``
holds the helpers to them.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Sequence, Tuple

from repro.core.dialects import ReproDialect
from repro.dataframe.schema import is_null
from repro.sql import Database

REPRO = ReproDialect()


def pattern_counts_sql(db: Database, table_name: str, column: str, patterns: List[str]) -> List[Tuple[str, int]]:
    """Verify candidate patterns with SQL, as the paper prescribes."""
    counts: List[Tuple[str, int]] = []
    matched_clauses: List[str] = []
    col = REPRO.quote_identifier(column)
    for pattern in patterns:
        clause = f"REGEXP_FULL_MATCH({col}, {REPRO.quote_literal(pattern)})"
        exclusion = " AND ".join(f"NOT {c}" for c in matched_clauses)
        where = clause if not matched_clauses else f"{clause} AND {exclusion}"
        try:
            count = db.scalar(
                f"SELECT COUNT(*) FROM {REPRO.quote_identifier(table_name)} WHERE {where}"
            )
        except Exception:
            count = 0
        counts.append((pattern, int(count or 0)))
        matched_clauses.append(clause)
    return counts


def _checked_texts_per_row(values: Sequence[object]) -> Iterator[str]:
    """``str(value)`` of every value that is neither NULL nor blank."""
    for value in values:
        if is_null(value):
            continue
        text = str(value)
        if text.strip():
            yield text


def _compiled_per_row(patterns: Sequence[str]) -> List[Tuple[str, re.Pattern]]:
    """``(pattern, regex)`` in order, for the patterns that compile."""
    compiled = []
    for pattern in patterns:
        try:
            compiled.append((pattern, re.compile(pattern)))
        except re.error:
            continue
    return compiled


def pattern_counts_per_row(values: Sequence[object], patterns: Sequence[str]) -> List[Tuple[str, int]]:
    """Count how many checked values fully match each pattern (first match wins).

    Each value counts once, for the first pattern in list order that matches
    it, so a repeated pattern counts zero after its first occurrence.
    """
    compiled = _compiled_per_row(patterns)
    counts = [0] * len(compiled)
    for text in _checked_texts_per_row(values):
        for index, (_pattern, regex) in enumerate(compiled):
            if regex.fullmatch(text):
                counts[index] += 1
                break
    return [(pattern, count) for (pattern, _regex), count in zip(compiled, counts)]


def match_fraction_per_row(values: Sequence[object], patterns: Sequence[str]) -> float:
    """Fraction of checked values matching at least one pattern (1.0 if none are checked)."""
    regexes = [regex for _pattern, regex in _compiled_per_row(patterns)]
    total = 0
    matched = 0
    for text in _checked_texts_per_row(values):
        total += 1
        if any(regex.fullmatch(text) for regex in regexes):
            matched += 1
    return matched / total if total else 1.0


def non_matching_values_per_row(values: Sequence[object], pattern: str) -> List[str]:
    """Distinct checked values that do not match ``pattern``, in first-seen order."""
    compiled = _compiled_per_row([pattern])
    if not compiled:
        return []
    regex = compiled[0][1]
    out: List[str] = []
    seen = set()
    for text in _checked_texts_per_row(values):
        if regex.fullmatch(text) is None and text not in seen:
            seen.add(text)
            out.append(text)
    return out
