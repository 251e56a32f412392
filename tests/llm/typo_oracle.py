"""Parity oracle for the typo search: the original brute-force scans.

``repro.llm.semantic`` answers typo questions from a per-distribution typo
index and a deletion index over the domain vocabulary.  The functions below
are the scans that index replaced, their logic copied unchanged, with one
deliberate difference: the vocabulary fix replaces whole words, not bare
substrings, so a correctly spelled word that contains the typo ("brewing"
around "brewin") stays intact.  ``test_typo_index.py`` holds the index to these scans.

The scans measure distance with :func:`edit_distance_full`, the full-table
Levenshtein that ``repro.llm.semantic.edit_distance`` bands;
``test_edit_distance.py`` holds the band to it.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence, Tuple

from repro.llm.knowledge.vocabulary import DOMAIN_VOCABULARY, words_of
from repro.llm.semantic import SemanticModel


def edit_distance_full(a: str, b: str, limit: int = 3) -> int:
    """Levenshtein distance over the whole table, exiting early on a row minimum.

    Distances above ``limit`` are reported as ``limit + 1``.
    """
    if a == b:
        return 0
    if abs(len(a) - len(b)) > limit:
        return limit + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        best = i
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            value = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            current.append(value)
            best = min(best, value)
        if best > limit:
            return limit + 1
        previous = current
    return min(previous[-1], limit + 1)


def typo_target_baseline(
    value: str,
    count: int,
    frequent: Sequence[Tuple[str, int]],
    min_count_ratio: float,
    max_distance: int,
) -> Optional[str]:
    """The original pairwise scan: rebuild ``attested``, then try every frequent value."""
    text = str(value)
    if len(text) < 3:
        return None
    letters = re.findall(r"[A-Za-z]{3,}", text)
    meaningful_letters = [w for w in letters if w.lower() not in ("a", "p", "am", "pm")]
    if not meaningful_letters:
        return None
    attested = set()
    for other, other_count in frequent:
        if str(other) == text:
            continue
        attested.update(words_of(str(other)))
    suspicious = [
        w for w in words_of(text)
        if len(w) >= 3 and w not in attested and w not in DOMAIN_VOCABULARY
    ]
    if not suspicious:
        return None
    best: Optional[str] = None
    best_count = 0
    for other, other_count in frequent:
        other_text = str(other)
        if other_text == text or len(other_text) < 3:
            continue
        if other_count * min_count_ratio < count:
            continue
        has_digits = any(ch.isdigit() for ch in text) or any(ch.isdigit() for ch in other_text)
        if has_digits and re.sub(r"[^0-9]", "", text) != re.sub(r"[^0-9]", "", other_text):
            continue
        max_d = 1 if len(text) <= 5 else max_distance
        if edit_distance_full(text.lower(), other_text.lower(), max_d) <= max_d:
            if other_count > best_count:
                best, best_count = other, other_count
    return best


def fix_vocabulary_typos_baseline(value: str) -> Optional[str]:
    """The original vocabulary scan: every word against all of ``DOMAIN_VOCABULARY``."""
    words = words_of(value)
    if not words:
        return None
    changed = False
    fixed_value = str(value)
    for word in words:
        if word in DOMAIN_VOCABULARY or len(word) < 4:
            continue
        if word.rstrip("s") in DOMAIN_VOCABULARY or word + "s" in DOMAIN_VOCABULARY:
            continue
        candidates = [
            known
            for known in DOMAIN_VOCABULARY
            if abs(len(known) - len(word)) <= 1
            and len(known) >= 5
            and edit_distance_full(word, known, 1) <= 1
            and known.rstrip("s") != word.rstrip("s")
        ]
        if candidates:
            known = min(candidates, key=lambda k: (edit_distance_full(word, k, 1), len(k), k))
            fixed_value = re.sub(
                rf"(?<![A-Za-z]){re.escape(word)}(?![A-Za-z])", known, fixed_value, flags=re.IGNORECASE
            )
            changed = True
    return fixed_value if changed else None


class BruteForceTypos:
    """Stands in for the typo index: every question runs the pairwise scan."""

    def __init__(self, frequent: Sequence[Tuple[str, int]], min_count_ratio: float, max_distance: int):
        self.frequent = list(frequent)
        self.min_count_ratio = min_count_ratio
        self.max_distance = max_distance

    def target(self, text: str, count: int) -> Optional[str]:
        return typo_target_baseline(text, count, self.frequent, self.min_count_ratio, self.max_distance)


class BruteForceSemanticModel(SemanticModel):
    """A :class:`SemanticModel` whose typo search runs the original scans."""

    def _typo_index(self, value_counts):
        frequent = [(v, c) for v, c in value_counts if c >= 2]
        return BruteForceTypos(frequent, self.TYPO_MIN_COUNT_RATIO, self.TYPO_MAX_DISTANCE)

    def _fix_vocabulary_typos(self, value: str) -> Optional[str]:
        return fix_vocabulary_typos_baseline(value)
