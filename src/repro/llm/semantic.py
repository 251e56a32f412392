"""The semantic reasoning engine behind the simulated LLM.

This module is the stand-in for the world knowledge and language competence
of a hosted model.  Every judgement Cocoon delegates to the LLM has a
corresponding method here:

* grouping redundant representations of one concept ("eng" / "English")
* spotting typos ("cofffee", "1/1/2000x")
* recognising disguised missing values ("N/A", "--")
* suggesting semantic column types ("yes"/"no" is a boolean)
* reviewing plausible numeric ranges (an age of 851 is impossible)
* judging whether a statistically strong functional dependency is meaningful
* proposing corrections for FD violations
* deciding whether duplicate rows / non-unique key columns are acceptable

The engine is deterministic so experiments are reproducible.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.llm.knowledge.abbreviations import concept_key, parse_duration_minutes
from repro.llm.knowledge.languages import language_code
from repro.llm.knowledge.nullwords import is_disguised_missing
from repro.llm.knowledge.types import (
    boolean_fraction,
    expected_numeric_range,
    looks_like_date_column,
    looks_like_identifier_column,
    semantic_boolean,
)
from repro.llm.knowledge.vocabulary import DOMAIN_VOCABULARY, words_of


# ---------------------------------------------------------------------------
# small utilities
# ---------------------------------------------------------------------------
def edit_distance(a: str, b: str, limit: int = 3) -> int:
    """Levenshtein distance with an early-exit ``limit``.

    Distances above ``limit`` are reported as ``limit + 1`` (the caller only
    ever asks "is it within the limit"), which keeps the function symmetric.
    Only the ``2·limit + 1`` diagonals ``|i - j| <= limit`` of the table are
    filled (Ukkonen 1985): a cell off that band has a distance above
    ``limit``, so reading it as ``limit + 1`` changes no answer.
    """
    if a == b:
        return 0
    cap = limit + 1
    n = len(b)
    if abs(len(a) - n) > limit:
        return cap
    # A cell right of the band is never written and keeps its start value >= cap.
    previous = list(range(n + 1))
    current = [cap] * (n + 1)
    for i, ca in enumerate(a, start=1):
        lo = i - limit if i > limit else 1
        hi = i + limit if i + limit < n else n
        left = current[lo - 1] = i if lo == 1 else cap
        for j in range(lo, hi + 1):
            value = previous[j - 1] + (ca != b[j - 1])
            if previous[j] < value:
                value = previous[j] + 1
            if left < value:
                value = left + 1
            current[j] = left = value
        if min(current[lo - 1:hi + 1]) > limit:
            return cap
        previous, current = current, previous
    return min(previous[n], cap)


def normalise(value: str) -> str:
    """Case/punctuation/whitespace-insensitive form used for clustering."""
    return re.sub(r"[^a-z0-9]+", " ", str(value).lower()).strip()


_SHAPE_PIECE_RE = re.compile(r"\d+|[A-Za-z]+|\s+|.")


def value_shape(value: str) -> str:
    """Convert a value to a regex describing its character-class shape.

    ``"12/05/2004"`` → ``\\d{2}/\\d{2}/\\d{4}``; ``"AA-1733"`` →
    ``[A-Za-z]{2}-\\d{4}``.  This is the "semantically meaningful pattern"
    induction used for the pattern-outlier operator.
    """
    pieces = []
    for piece in _SHAPE_PIECE_RE.findall(str(value)):
        if piece.isdigit():
            pieces.append(rf"\d{{{len(piece)}}}")
        elif piece.isalpha():
            pieces.append(rf"[A-Za-z]{{{len(piece)}}}")
        elif piece.isspace():
            pieces.append(rf"\s{{{len(piece)}}}")
        else:
            pieces.append(re.escape(piece))
    return "".join(pieces)


# ---------------------------------------------------------------------------
# typo search
# ---------------------------------------------------------------------------
_LETTER_RUN_RE = re.compile(r"[A-Za-z]{3}")


def _digit_signature(text: str) -> str:
    return re.sub(r"[^0-9]", "", text)


def _char_mask(text: str) -> int:
    """One bit per distinct character; ASCII is exact, other characters fold onto it."""
    mask = 0
    for ch in text:
        mask |= 1 << (ord(ch) & 127)
    return mask


def _popcount(mask: int) -> int:
    return bin(mask).count("1")  # int.bit_count needs Python 3.10


class TypoIndex:
    """Answers "which frequent value is ``text`` a typo of?" for one distribution.

    Built once per frequent-value list.  Per frequent value it holds the
    lowered text, the digit signature and a character-set bitmask, bucketed
    by lowered length; per word it holds how many frequent values contain
    it.  Answers are memoised by ``(text, count)``; threads racing on one
    question compute it twice and store the same answer.
    """

    def __init__(self, frequent: Sequence[Tuple[str, int]], min_count_ratio: float, max_distance: int):
        self.min_count_ratio = min_count_ratio
        self.max_distance = max_distance
        self._text_counts = Counter(str(v) for v, _ in frequent)
        self._word_counts = Counter(w for v, _ in frequent for w in set(words_of(str(v))))
        self._by_length: Dict[int, List[Tuple[int, str, int, str, str, str, int]]] = defaultdict(list)
        for position, (value, count) in enumerate(frequent):
            text = str(value)
            if len(text) < 3:
                continue
            lowered = text.lower()
            self._by_length[len(lowered)].append(
                (position, value, count, text, lowered, _digit_signature(text), _char_mask(lowered))
            )
        self._answers: Dict[Tuple[str, int], Optional[str]] = {}

    def target(self, text: str, count: int) -> Optional[str]:
        """The frequent value ``text`` (seen ``count`` times) is likely a typo of, if any."""
        key = (text, count)
        try:
            return self._answers[key]
        except KeyError:
            answer = self._answers[key] = self._search(text, count)
            return answer

    def _search(self, text: str, count: int) -> Optional[str]:
        """Search the buckets near ``text`` for the most frequent close value.

        A rare value is only a typo candidate when it is textual, contains at
        least one *suspicious* word (a word that neither appears in any other
        frequent value nor in the domain vocabulary — "attakc", "RReview"),
        and the difference to the frequent value does not involve digits
        ("Frozen River 2" is a different film than "Frozen River 3", and
        "149 min" is a different runtime than "183 min", not a typo).
        """
        # Values that are essentially numeric (times, codes, measurements) are not
        # plausible typos of one another: "10:31 p.m." is a valid time, not a
        # misspelling of "10:30 p.m.".
        if len(text) < 3 or not _LETTER_RUN_RE.search(text):
            return None
        # A word of ``text`` is attested when a frequent value other than
        # ``text`` itself contains it; every copy of ``text`` contains it.
        copies = self._text_counts[text]
        if not any(
            len(w) >= 3 and self._word_counts[w] <= copies and w not in DOMAIN_VOCABULARY
            for w in words_of(text)
        ):
            return None
        lowered = text.lower()
        digits = _digit_signature(text)
        mask = _char_mask(lowered)
        max_d = 1 if len(text) <= 5 else self.max_distance
        matches = []
        for length in range(len(lowered) - max_d, len(lowered) + max_d + 1):
            for position, other, other_count, other_text, other_lowered, other_digits, other_mask in (
                self._by_length.get(length, ())
            ):
                if other_text == text or other_count * self.min_count_ratio < count:
                    continue
                # Differences that involve digits denote distinct entities, not typos.
                # (Two values without digits share the empty signature.)
                if other_digits != digits:
                    continue
                # Each edit removes at most one distinct character from either side.
                if _popcount(mask & ~other_mask) > max_d or _popcount(other_mask & ~mask) > max_d:
                    continue
                if edit_distance(lowered, other_lowered, max_d) <= max_d:
                    matches.append((position, other, other_count))
        if not matches:
            return None
        # The most frequent match wins; ties go to the earliest frequent value.
        return min(matches, key=lambda m: (-m[2], m[0]))[1]


def _deletion_keys(word: str) -> set:
    """``word`` and its single-character deletions: words within one edit share a key."""
    return {word} | {word[:i] + word[i + 1:] for i in range(len(word))}


def _deletion_index(words) -> Dict[str, List[str]]:
    index: Dict[str, List[str]] = defaultdict(list)
    for word in words:
        for key in _deletion_keys(word):
            index[key].append(word)
    return dict(index)


# Distance-1 index over the vocabulary words offered as corrections.
_VOCABULARY_DELETIONS = _deletion_index(w for w in DOMAIN_VOCABULARY if len(w) >= 5)


def vocabulary_correction(word: str) -> Optional[str]:
    """The vocabulary word ``word`` is one edit away from, if any.

    Several known words can sit within distance 1 ("patient" and "patients"
    of "patiens"); prefer the closest, then the shortest (minimal
    correction), then alphabetical — never set order, which would make
    repairs depend on the process hash seed.
    """
    candidates = {
        known
        for key in _deletion_keys(word)
        for known in _VOCABULARY_DELETIONS.get(key, ())
        if edit_distance(word, known, 1) <= 1 and known.rstrip("s") != word.rstrip("s")
    }
    if not candidates:
        return None
    return min(candidates, key=lambda k: (edit_distance(word, k, 1), len(k), k))


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------
@dataclass
class StringReview:
    unusual: bool
    reasoning: str
    summary: str
    suspects: List[str] = field(default_factory=list)


@dataclass
class TypeSuggestion:
    suggested_type: str
    reasoning: str
    value_mapping: Dict[str, str] = field(default_factory=dict)


@dataclass
class RangeReview:
    has_outliers: bool
    acceptable_min: Optional[float]
    acceptable_max: Optional[float]
    reasoning: str


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class SemanticModel:
    """Deterministic semantic judgements over column values."""

    #: A value is a typo of another only if its count is at most this
    #: fraction of the other's.
    TYPO_MIN_COUNT_RATIO = 0.5
    #: Largest edit distance between a typo and its target.
    TYPO_MAX_DISTANCE = 2

    def __init__(self) -> None:
        self._last_typo_index: Optional[Tuple[Any, TypoIndex]] = None

    # -- string outliers ----------------------------------------------------
    def cluster_values(self, value_counts: Sequence[Tuple[str, int]]) -> Dict[str, List[Tuple[str, int]]]:
        """Group values that denote the same real-world concept.

        Clusters are keyed by concept: knowledge-base concepts first
        (languages, states, units, durations), then normalised string form,
        then typo proximity to a more frequent value.
        """
        clusters: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
        assigned: Dict[str, str] = {}
        counts = {v: c for v, c in value_counts}
        # Pass 1: knowledge-base concepts.
        for value, count in value_counts:
            key = None
            code = language_code(str(value))
            if code is not None:
                key = f"lang:{code}"
            else:
                concept = concept_key(str(value))
                if concept is not None:
                    key = concept
            if key is not None:
                clusters[key].append((value, count))
                assigned[value] = key
        # Pass 2: normalised form (case / punctuation variants).
        norm_groups: Dict[str, List[str]] = defaultdict(list)
        for value, _count in value_counts:
            if value in assigned:
                continue
            norm_groups[normalise(str(value))].append(value)
        for norm, values in norm_groups.items():
            if not norm:
                continue
            key = f"norm:{norm}"
            for value in values:
                clusters[key].append((value, counts[value]))
                assigned[value] = key
        # Pass 3: typo proximity — a rare value close to a frequent one joins it.
        index = self._typo_index(value_counts)
        for value, count in value_counts:
            key = assigned.get(value)
            if key is None:
                continue
            if len(clusters[key]) > 1:
                continue
            candidate = index.target(str(value), count)
            if candidate is not None and candidate != value:
                target_key = assigned.get(candidate)
                if target_key is not None and target_key != key:
                    clusters[target_key].append((value, count))
                    clusters[key] = [p for p in clusters[key] if p[0] != value]
                    assigned[value] = target_key
        return {k: v for k, v in clusters.items() if v}

    def _typo_index(self, value_counts: Sequence[Tuple[str, int]]) -> TypoIndex:
        """The typo index over the frequent values (count >= 2) of ``value_counts``.

        The review call and every cleaning batch of a column ask about the
        same distribution, so the model keeps the last index and reuses it.
        The ``(key, index)`` pair is replaced as one tuple and read once into
        a local, so threads sharing one model never pair a key with another
        distribution's index.
        """
        frequent = tuple((v, c) for v, c in value_counts if c >= 2)
        cached = self._last_typo_index
        if cached is not None and cached[0] == frequent:
            return cached[1]
        index = TypoIndex(frequent, self.TYPO_MIN_COUNT_RATIO, self.TYPO_MAX_DISTANCE)
        self._last_typo_index = (frequent, index)
        return index

    def _typo_suspects(self, value_counts: Sequence[Tuple[str, int]]) -> Dict[str, str]:
        """Map suspected typo values to their likely intended values.

        Only *rare* values can be typos: a frequent value is, by definition, a
        deliberate representation even if it resembles another value.
        """
        counts = {v: c for v, c in value_counts}
        index = self._typo_index(value_counts)
        total = sum(counts.values())
        rare_limit = max(2, int(total * 0.01))
        suspects: Dict[str, str] = {}
        for value, count in value_counts:
            if count > rare_limit:
                continue
            target = index.target(str(value), count)
            if target is not None and counts.get(target, 0) > count:
                suspects[value] = target
                continue
            # Word-level check against the domain vocabulary: "cofffee" → "coffee".
            fixed = self._fix_vocabulary_typos(str(value))
            if fixed is not None and fixed != value:
                suspects[value] = fixed
        return suspects

    def _fix_vocabulary_typos(self, value: str) -> Optional[str]:
        words = words_of(value)
        if not words:
            return None
        changed = False
        fixed_value = str(value)
        for word in words:
            if word in DOMAIN_VOCABULARY or len(word) < 4:
                continue
            # Plural / singular variants of known words are valid words, not typos.
            if word.rstrip("s") in DOMAIN_VOCABULARY or word + "s" in DOMAIN_VOCABULARY:
                continue
            known = vocabulary_correction(word)
            if known is not None:
                # Whole words only: "brewin" must not rewrite the "brewin" inside "Brewing".
                fixed_value = re.sub(
                    rf"(?<![A-Za-z]){re.escape(word)}(?![A-Za-z])", known, fixed_value, flags=re.IGNORECASE
                )
                changed = True
        return fixed_value if changed else None

    def review_string_values(self, column_name: str, value_counts: Sequence[Tuple[str, int]]) -> StringReview:
        """Figure 2 judgement: are there typos or inconsistent representations?"""
        clusters = self.cluster_values(value_counts)
        redundant = {k: v for k, v in clusters.items() if len(v) > 1}
        suspects = self._typo_suspects(value_counts)
        issues: List[str] = []
        for key, members in sorted(redundant.items()):
            names = ", ".join(f"'{v}'" for v, _ in sorted(members, key=lambda p: -p[1])[:4])
            issues.append(f"{names} are redundant representations of the same concept")
        for value, target in sorted(suspects.items()):
            issues.append(f"'{value}' looks like a typo of '{target}'")
        unusual = bool(issues)
        if unusual:
            summary = f"{len(redundant) + len(suspects)} values are unusual because " + "; ".join(issues[:6])
            reasoning = (
                f"The values of {column_name} contain "
                f"{len(redundant)} groups of inconsistent representations and {len(suspects)} suspected typos."
            )
        else:
            summary = "values look consistent"
            reasoning = f"The values of {column_name} are consistent representations; they are acceptable."
        suspect_values = sorted(set(list(suspects.keys()) + [v for m in redundant.values() for v, _ in m]))
        return StringReview(unusual=unusual, reasoning=reasoning, summary=summary, suspects=suspect_values)

    def map_string_values(
        self,
        column_name: str,
        summary: str,
        batch_values: Sequence[str],
        value_counts: Optional[Sequence[Tuple[str, int]]] = None,
    ) -> Tuple[str, Dict[str, str]]:
        """Figure 3 judgement: map erroneous values to corrected values."""
        if value_counts is None:
            # Without frequency context, assume earlier values are more frequent.
            value_counts = [(v, len(batch_values) - i) for i, v in enumerate(batch_values)]
        counts = {v: c for v, c in value_counts}
        for value in batch_values:
            counts.setdefault(value, 1)
        all_counts = sorted(counts.items(), key=lambda p: -p[1])
        clusters = self.cluster_values(all_counts)
        mapping: Dict[str, str] = {}
        batch_set = set(batch_values)
        for members in clusters.values():
            if len(members) < 2:
                continue
            canonical = self._canonical_member(members)
            for value, _count in members:
                if value != canonical and value in batch_set:
                    mapping[value] = canonical
        suspects = self._typo_suspects(all_counts)
        for value, target in suspects.items():
            if value in batch_set and value not in mapping:
                mapping[value] = mapping.get(target, target)
        # Values that are pure noise (no letters/digits) map to empty string.
        for value in batch_values:
            if value not in mapping and not re.search(r"[A-Za-z0-9]", str(value)):
                mapping[value] = ""
        explanation = (
            f"The problem is that {column_name} mixes typos and redundant representations. "
            f"The correct values are the most common representation of each concept."
        )
        return explanation, mapping

    @staticmethod
    def _canonical_member(members: Sequence[Tuple[str, int]]) -> str:
        """Choose the canonical representation: most frequent, ties break to shortest."""
        return sorted(members, key=lambda p: (-p[1], len(str(p[0])), str(p[0])))[0][0]

    # -- disguised missing values --------------------------------------------
    def detect_dmv(self, column_name: str, value_counts: Sequence[Tuple[str, int]]) -> Tuple[str, List[str]]:
        dmvs = [v for v, _ in value_counts if is_disguised_missing(v)]
        if dmvs:
            reasoning = (
                f"Values {', '.join(repr(v) for v in dmvs[:8])} in {column_name} are placeholders that "
                "semantically mean the value is missing."
            )
        else:
            reasoning = f"No value of {column_name} is a placeholder for a missing value."
        return reasoning, dmvs

    # -- column type ------------------------------------------------------------
    def suggest_type(
        self,
        column_name: str,
        current_type: str,
        value_counts: Sequence[Tuple[str, int]],
    ) -> TypeSuggestion:
        values = [v for v, _ in value_counts if v is not None and str(v).strip() != ""]
        if not values:
            return TypeSuggestion(current_type.upper(), "No non-null values to judge; keep the current type.")
        non_dmv = [v for v in values if not is_disguised_missing(v)]
        judged = non_dmv or values
        if looks_like_identifier_column(column_name) and current_type.upper() == "VARCHAR":
            return TypeSuggestion(
                "VARCHAR",
                f"{column_name} is an identifier; codes must stay text to preserve leading zeros.",
            )
        frac_bool = boolean_fraction(judged)
        if frac_bool >= 0.99:
            mapping = {}
            for v in judged:
                interpreted = semantic_boolean(v)
                if interpreted is not None:
                    mapping[str(v)] = "True" if interpreted else "False"
            return TypeSuggestion(
                "BOOLEAN",
                f"{column_name} holds yes/no style values which semantically represent a boolean.",
                mapping,
            )
        durations = [parse_duration_minutes(str(v)) for v in judged]
        duration_hits = sum(1 for d in durations if d is not None)
        numericish = sum(1 for v in judged if re.fullmatch(r"[+-]?\d+(\.\d+)?", str(v).strip()))
        if duration_hits / len(judged) >= 0.9 and duration_hits > numericish:
            mapping = {
                str(v): str(d)
                for v, d in zip(judged, durations)
                if d is not None and str(v).strip() != str(d)
            }
            return TypeSuggestion(
                "DOUBLE",
                f"{column_name} holds durations expressed in mixed units; represent them as minutes.",
                mapping,
            )
        ints = sum(1 for v in judged if re.fullmatch(r"[+-]?\d+", str(v).strip()))
        floats = sum(1 for v in judged if re.fullmatch(r"[+-]?\d*\.\d+", str(v).strip()))
        if (ints + floats) / len(judged) >= 0.99:
            if floats:
                return TypeSuggestion("DOUBLE", f"All values of {column_name} are numeric with decimals.")
            if looks_like_identifier_column(column_name):
                return TypeSuggestion("VARCHAR", f"{column_name} is a numeric code, not a quantity; keep it text.")
            return TypeSuggestion("INTEGER", f"All values of {column_name} are integers.")
        from repro.dataframe.schema import parse_date

        dates = sum(1 for v in judged if parse_date(str(v)) is not None)
        if dates / len(judged) >= 0.95 or (looks_like_date_column(column_name) and dates / len(judged) >= 0.8):
            return TypeSuggestion("DATE", f"{column_name} holds calendar dates.")
        return TypeSuggestion(
            current_type.upper(),
            f"The values of {column_name} are heterogeneous text; the current type is already suitable.",
        )

    # -- numeric outliers -----------------------------------------------------------
    def review_numeric_range(
        self,
        column_name: str,
        dtype: str,
        minimum: Optional[float],
        maximum: Optional[float],
        mean: Optional[float],
    ) -> RangeReview:
        bounds = expected_numeric_range(column_name)
        if bounds is None or minimum is None or maximum is None:
            return RangeReview(
                False, None, None,
                f"No real-world range is known for {column_name}; the observed range is accepted.",
            )
        low, high = bounds
        has_outliers = minimum < low or maximum > high
        reasoning = (
            f"{column_name} should fall within [{low}, {high}] in the real world; "
            f"the data ranges over [{minimum}, {maximum}]."
        )
        return RangeReview(has_outliers, low, high, reasoning)

    # -- pattern outliers ---------------------------------------------------------------
    def generate_patterns(self, column_name: str, value_counts: Sequence[Tuple[str, int]]) -> Tuple[str, List[str]]:
        shapes = Counter()
        for value, count in value_counts:
            if value is None or str(value).strip() == "":
                continue
            shapes[value_shape(str(value))] += count
        patterns = [p for p, _ in shapes.most_common(8)]
        reasoning = f"The values of {column_name} follow {len(patterns)} structural patterns."
        return reasoning, patterns

    def judge_pattern_consistency(
        self, column_name: str, pattern_counts: Sequence[Tuple[str, int]]
    ) -> Tuple[str, bool, Optional[str]]:
        meaningful = [(p, c) for p, c in pattern_counts if p and p != ".*" and c > 0]
        if len(meaningful) <= 1:
            return (
                f"All values of {column_name} share a single structural pattern.",
                False,
                meaningful[0][0] if meaningful else None,
            )
        # Patterns that differ only in repetition counts (e.g. \d{1} vs \d{2})
        # describe one concept with naturally variable length — identifiers,
        # counts, names — and are not inconsistent representations.
        loose_forms = {re.sub(r"\{\d+(,\d+)?\}", "+", p) for p, _ in meaningful}
        if len(loose_forms) == 1:
            return (
                f"The patterns of {column_name} differ only in length; they represent one concept consistently.",
                False,
                max(meaningful, key=lambda p: p[1])[0],
            )
        total = sum(c for _, c in meaningful)
        standard, standard_count = max(meaningful, key=lambda p: p[1])
        # Inconsistent only when one clearly dominant pattern exists and the others
        # are minority variants of the same concept (e.g. a second date format).
        inconsistent = standard_count / total >= 0.8
        reasoning = (
            f"{column_name} mixes {len(meaningful)} structural patterns; the dominant pattern covers "
            f"{standard_count}/{total} values."
        )
        return reasoning, inconsistent, standard

    def normalise_to_pattern(self, value: str, standard_pattern: str) -> Optional[str]:
        """Rewrite ``value`` to match the standard pattern when a safe rewrite exists.

        Handles the common date-format and zero-padding rewrites; returns None
        when no semantics-preserving rewrite is known.
        """
        text = str(value).strip()
        if re.fullmatch(standard_pattern, text):
            return text
        date_like = re.fullmatch(r"(\d{1,4})([/-])(\d{1,2})\2(\d{1,4})", text)
        if date_like:
            a, sep, b, c = date_like.group(1), date_like.group(2), date_like.group(3), date_like.group(4)
            candidates = []
            if len(a) == 4:  # yyyy-mm-dd → mm/dd/yyyy or keep
                candidates.extend([f"{b.zfill(2)}/{c.zfill(2)}/{a}", f"{a}-{b.zfill(2)}-{c.zfill(2)}"])
            else:  # mm/dd/yyyy → yyyy-mm-dd or zero-pad
                candidates.extend([f"{c}-{a.zfill(2)}-{b.zfill(2)}", f"{a.zfill(2)}/{b.zfill(2)}/{c}"])
            for candidate in candidates:
                if re.fullmatch(standard_pattern, candidate):
                    return candidate
        # Strip stray characters that keep the value from matching, e.g. '1/1/2000x'.
        stripped = re.sub(r"[^0-9A-Za-z/.:\- ]", "", text).strip()
        if stripped != text and re.fullmatch(standard_pattern, stripped):
            return stripped
        if "[A-Za-z]" not in standard_pattern:
            # The standard shape has no letters, so stray letters are noise.
            digits_only = re.sub(r"[A-Za-z]", "", text).strip()
            if digits_only != text and re.fullmatch(standard_pattern, digits_only):
                return digits_only
        return None

    # -- functional dependencies -------------------------------------------------------
    # Column-name vocabulary used to judge whether an FD is meaningful in the
    # real world — the role world knowledge plays for a hosted model.
    _CATEGORY_WORDS = {
        "city", "state", "country", "county", "region", "language", "genre", "style",
        "type", "condition", "owner", "gender", "color", "colour", "status", "category",
        "class", "source", "emergency",
    }
    _MEASURE_WORDS = {
        "score", "avg", "average", "abv", "ibu", "sample", "votes", "count", "rating",
        "price", "salary", "weight", "height", "duration", "runtime", "pagination",
        "pages", "volume", "issue", "vol", "amount", "total", "review",
    }
    _TEMPORAL_WORDS = {"time", "date", "year", "created", "updated", "timestamp", "dob"}

    @classmethod
    def _column_category(cls, column: str) -> str:
        tokens = set(re.split(r"[^a-z]+", column.lower())) | {column.lower()}
        lowered = column.lower()
        # Abbreviated column names ("article_jvolumn", "jissue") still contain the
        # measure word as a substring, so fall back to substring matching.
        if any(t in cls._MEASURE_WORDS for t in tokens) or any(
            word in lowered for word in ("volume", "vol", "issue", "pagination", "score", "rating", "count")
        ):
            return "measure"
        if any(t in cls._TEMPORAL_WORDS for t in tokens) or "time" in lowered or "date" in lowered:
            return "temporal"
        if looks_like_identifier_column(column) or lowered.endswith("issn"):
            return "identifier"
        if any(t in cls._CATEGORY_WORDS for t in tokens):
            return "category"
        if "name" in lowered or "title" in lowered:
            return "name"
        return "entity"

    def judge_fd(
        self,
        determinant: str,
        dependent: str,
        entropy_score: float,
        violation_examples: Sequence[Tuple[str, Sequence[Tuple[str, int]]]],
    ) -> Tuple[str, bool]:
        """Is the statistically strong FD meaningful in the real world?

        A dependency is meaningful when the determinant identifies an entity
        (a provider number, a measure code, a brewery, a journal, a flight)
        and the dependent is an attribute of that entity.  It is rejected
        when the determinant is a broad category (a city does not determine a
        brewery), when the dependent is a per-record measurement (a score, an
        ABV), or when the dependent records a measured event — the Flights
        ``flight → actual arrival time`` case the paper discusses.
        """
        dep = dependent.lower()
        det = determinant.lower()
        if det == dep:
            return ("A column trivially determines itself; not meaningful for cleaning.", False)
        if any(word in dep for word in ("actual", "observed", "measured")):
            return (
                f"{dependent} records a measured event; inconsistent measurements for one {determinant} "
                "reflect application uncertainty, not redundancy, so the dependency is not meaningful.",
                False,
            )
        det_category = self._column_category(determinant)
        dep_category = self._column_category(dependent)
        if det_category in ("category", "measure", "temporal"):
            return (
                f"{determinant} is a broad {det_category} attribute; many different records can share one "
                f"{determinant} value, so it does not determine {dependent} in the real world.",
                False,
            )
        if dep_category == "measure":
            return (
                f"{dependent} is a per-record measurement; records sharing one {determinant} can legitimately "
                "have different values, so the dependency is not meaningful.",
                False,
            )
        return (
            f"{determinant} identifies an entity and {dependent} is an attribute of it; in the real world each "
            f"{determinant} corresponds to a single {dependent}, so violations are errors.",
            True,
        )

    def correct_fd(
        self,
        determinant: str,
        dependent: str,
        violation_groups: Sequence[Tuple[str, Sequence[Tuple[str, int]]]],
    ) -> Tuple[str, Dict[str, str]]:
        """For each violating determinant value, choose the correct dependent value."""
        mapping: Dict[str, str] = {}
        for lhs, rhs_counts in violation_groups:
            if not rhs_counts:
                continue
            candidates = sorted(rhs_counts, key=lambda p: (-p[1], len(str(p[0])), str(p[0])))
            # Prefer a candidate that is not a suspected typo of another candidate.
            best = candidates[0][0]
            counts = list(rhs_counts)
            suspects = self._typo_suspects(counts)
            while best in suspects and suspects[best] != best:
                best = suspects[best]
            mapping[str(lhs)] = str(best)
        explanation = (
            f"The correct values are the consensus {dependent} for each {determinant}; "
            "rare conflicting values are recording errors."
        )
        return explanation, mapping

    # -- duplication ----------------------------------------------------------------------
    def judge_duplicates(
        self, table_name: str, duplicate_count: int, sample_rows: Sequence[Mapping[str, Any]]
    ) -> Tuple[str, bool]:
        lowered = table_name.lower()
        if any(token in lowered for token in ("log", "event", "sensor", "reading")):
            return (
                f"{table_name} is an append-only log; identical rows can legitimately repeat "
                "at coarse time granularity.",
                False,
            )
        columns = list(sample_rows[0].keys()) if sample_rows else []
        has_timestamp = any("time" in c.lower() or "date" in c.lower() for c in columns)
        has_id = any(looks_like_identifier_column(c) for c in columns)
        if has_id or not has_timestamp:
            return (
                f"Rows of {table_name} describe distinct entities; fully duplicated rows are erroneous.",
                True,
            )
        return (
            f"{table_name} rows repeat measurements over time; duplicates are suspicious but kept erroneous "
            "only because exact duplication of every field is unlikely.",
            True,
        )

    # -- column uniqueness ----------------------------------------------------------------
    def judge_uniqueness(
        self,
        column_name: str,
        unique_ratio: float,
        dtype: str,
        candidate_order_columns: Sequence[str],
    ) -> Tuple[str, bool, Optional[str]]:
        identifier = looks_like_identifier_column(column_name)
        should_be_unique = identifier and unique_ratio >= 0.95
        order_column = None
        if should_be_unique:
            for candidate in candidate_order_columns:
                lowered = candidate.lower()
                if "time" in lowered or "date" in lowered or "updated" in lowered:
                    order_column = candidate
                    break
        if should_be_unique:
            reasoning = (
                f"{column_name} is an identifier with unique ratio {unique_ratio:.3f}; it should be unique, "
                + (f"keeping the latest record by {order_column}." if order_column else "keeping the first record.")
            )
        else:
            reasoning = (
                f"{column_name} is not a key column (unique ratio {unique_ratio:.3f}); "
                "repeated values are expected."
            )
        return reasoning, should_be_unique, order_column
