"""Structural pattern statistics used by the pattern-outlier operator.

The operator asks the LLM for candidate regular expressions and checks them
against the column values it already holds: how many values each pattern
covers (first match wins), what share of values any pattern covers, and
which values a pattern misses.  All three helpers check the same values —
``str(value)`` of every value that is neither NULL (None or NaN) nor blank —
matching each distinct text once and weighting it by its count, and drop
any pattern that does not compile instead of failing or counting it as zero.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import List, Sequence, Tuple

from repro.dataframe.column import Column
from repro.dataframe.schema import is_null


def _checked_texts(values: Sequence[object]) -> List[Tuple[str, int]]:
    """``(text, count)`` per distinct checked text, in order of first occurrence.

    The checked texts are ``str(value)`` of every value that is neither NULL
    nor blank; each distinct one is matched once and weighs its count.  A
    :class:`~repro.dataframe.column.Column` is read through its memoised
    dictionary codes, which its profile has usually computed already.
    """
    if isinstance(values, Column):
        codes, distinct = values.dictionary_codes()
        counts = Counter(codes)
        return [(text, counts[code]) for code, text in enumerate(distinct) if text.strip()]
    texts = Counter(str(value) for value in values if not is_null(value))
    return [(text, count) for text, count in texts.items() if text.strip()]


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
    for text, count in _checked_texts(values):
        for index, (_pattern, regex) in enumerate(compiled):
            if regex.fullmatch(text):
                counts[index] += count
                break
    return [(pattern, count) for (pattern, _regex), count in zip(compiled, counts)]


def match_fraction(values: Sequence[object], patterns: Sequence[str]) -> float:
    """Fraction of checked values matching at least one pattern (1.0 if none are checked)."""
    regexes = [regex for _pattern, regex in _compiled(patterns)]
    total = 0
    matched = 0
    for text, count in _checked_texts(values):
        total += count
        if any(regex.fullmatch(text) for regex in regexes):
            matched += count
    return matched / total if total else 1.0


def non_matching_values(values: Sequence[object], pattern: str) -> List[str]:
    """Distinct checked values that do not match ``pattern``, in first-seen order."""
    compiled = _compiled([pattern])
    if not compiled:
        return []
    regex = compiled[0][1]
    return [text for text, _count in _checked_texts(values) if regex.fullmatch(text) is None]
