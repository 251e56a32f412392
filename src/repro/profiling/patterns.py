"""Structural pattern statistics used by the pattern-outlier operator.

The operator asks the LLM for candidate regular expressions and checks them
against the column values it already holds: how many values each pattern
covers (first match wins), what share of values any pattern covers, and
which values a pattern misses.  All three helpers check the same values —
``str(value)`` of every value that is neither NULL (None or NaN) nor blank —
and drop any pattern that does not compile instead of failing or counting
it as zero.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Sequence, Tuple

from repro.dataframe.schema import is_null


def _checked_texts(values: Sequence[object]) -> Iterator[str]:
    """``str(value)`` of every value that is neither NULL nor blank."""
    for value in values:
        if is_null(value):
            continue
        text = str(value)
        if text.strip():
            yield text


def _compiled(patterns: Sequence[str]) -> List[Tuple[str, re.Pattern]]:
    """``(pattern, regex)`` in order, for the patterns that compile."""
    compiled = []
    for pattern in patterns:
        try:
            compiled.append((pattern, re.compile(pattern)))
        except re.error:
            continue
    return compiled


def pattern_counts(values: Sequence[object], patterns: Sequence[str]) -> List[Tuple[str, int]]:
    """Count how many checked values fully match each pattern (first match wins).

    Each value counts once, for the first pattern in list order that matches
    it, so a repeated pattern counts zero after its first occurrence.
    """
    compiled = _compiled(patterns)
    counts = [0] * len(compiled)
    for text in _checked_texts(values):
        for index, (_pattern, regex) in enumerate(compiled):
            if regex.fullmatch(text):
                counts[index] += 1
                break
    return [(pattern, count) for (pattern, _regex), count in zip(compiled, counts)]


def match_fraction(values: Sequence[object], patterns: Sequence[str]) -> float:
    """Fraction of checked values matching at least one pattern (1.0 if none are checked)."""
    regexes = [regex for _pattern, regex in _compiled(patterns)]
    total = 0
    matched = 0
    for text in _checked_texts(values):
        total += 1
        if any(regex.fullmatch(text) for regex in regexes):
            matched += 1
    return matched / total if total else 1.0


def non_matching_values(values: Sequence[object], pattern: str) -> List[str]:
    """Distinct checked values that do not match ``pattern``, in first-seen order."""
    compiled = _compiled([pattern])
    if not compiled:
        return []
    regex = compiled[0][1]
    out: List[str] = []
    seen = set()
    for text in _checked_texts(values):
        if regex.fullmatch(text) is None and text not in seen:
            seen.add(text)
            out.append(text)
    return out
