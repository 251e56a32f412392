"""Functional-dependency discovery and scoring.

Following Baran (and the paper's §2.1.6), only FDs with a single attribute
on each side are considered.  Candidate FDs are scored with the conditional
entropy of the dependent given the determinant: an FD that holds exactly has
conditional entropy 0, so the score ``1 - H(rhs | lhs) / H(rhs)`` is 1.0 for
exact dependencies and decreases as violations grow.

Both kernels count over per-column dictionary codes
(:meth:`~repro.dataframe.column.Column.dictionary_codes`, memoised on the
column, so every table version that shares a column shares its codes): a
pair is one ``Counter`` over the zipped code lists, the stripped-partition
idea of TANE.  ``tests/profiling/fd_oracle.py`` keeps the per-pair string
grouping they replace, as the parity oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.dataframe.table import Table


@dataclass
class FDCandidate:
    """A candidate functional dependency ``determinant -> dependent``."""

    determinant: str
    dependent: str
    score: float
    violating_groups: int
    violating_rows: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.determinant} -> {self.dependent} (score={self.score:.3f})"


def _entropy(counts: Sequence[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count == 0:
            continue
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _value_entropy(codes: Iterable[int]) -> Tuple[float, int]:
    """Entropy and number of the non-null codes, terms in first-occurrence order."""
    counts = Counter(codes)
    counts.pop(-1, None)
    return _entropy(list(counts.values())), sum(counts.values())


def _disagreeing_groups(det_codes: List[int], dep_codes: List[int]) -> List[List[int]]:
    """The counts of each determinant value that has two or more dependent values.

    Rows with a NULL on either side are left out.  Groups, and the counts in
    each, come in first-occurrence order: ``Counter`` keeps insertion order.
    """
    groups: Dict[int, List[int]] = {}
    for (det, dep), count in Counter(zip(det_codes, dep_codes)).items():
        if det < 0 or dep < 0:
            continue
        group = groups.get(det)
        if group is None:
            groups[det] = [count]
        else:
            group.append(count)
    return [counts for counts in groups.values() if len(counts) > 1]


def fd_violation_groups(
    table: Table, determinant: str, dependent: str
) -> List[Tuple[str, List[Tuple[str, int]]]]:
    """Groups of determinant values whose dependent values disagree.

    Each entry is ``(lhs_value, [(rhs_value, count), ...])`` with at least two
    distinct dependent values, sorted by descending disagreement size.  Values
    are the cells' strings, each group's by descending count with ties in
    first-occurrence order, as ``Counter.most_common`` orders them.
    """
    det_codes, det_values = table.column(determinant).dictionary_codes()
    dep_codes, dep_values = table.column(dependent).dictionary_codes()
    groups: Dict[int, List[Tuple[str, int]]] = {}
    for (det, dep), count in Counter(zip(det_codes, dep_codes)).items():
        if det >= 0 and dep >= 0:
            groups.setdefault(det, []).append((dep_values[dep], count))
    violations = []
    for det, members in groups.items():
        if len(members) > 1:
            members.sort(key=itemgetter(1), reverse=True)
            violations.append((det_values[det], members))
    violations.sort(key=lambda item: -sum(c for _, c in item[1]))
    return violations


def discover_fds(
    table: Table,
    min_score: float = 0.9,
    max_determinant_distinct_ratio: float = 0.95,
    columns: Sequence[str] = (),
) -> List[FDCandidate]:
    """Discover single-attribute FD candidates whose entropy score exceeds ``min_score``.

    Determinants that are (nearly) unique are skipped — a key column trivially
    determines everything and offers no cleaning signal.  Dependents with a
    single distinct value are skipped for the symmetric reason.

    Each pair is one ``Counter`` over the two columns' dictionary codes.  Its
    groups, and the values in each group, come in first-occurrence order, so
    the entropy terms are summed in the order of the string grouping in
    ``tests/profiling/fd_oracle.py`` and the scores are equal to the bit.  A
    group with one dependent value is skipped: its entropy is exactly 0.0.
    Beside a NULL-free determinant, ``H(rhs)`` is the dependent's own.
    """
    names = list(columns) if columns else table.column_names
    codes: Dict[str, List[int]] = {}
    distinct_ratio = {}
    distinct_count = {}
    column_entropy: Dict[str, Tuple[float, int]] = {}
    for name in names:
        column_codes, distinct = table.column(name).dictionary_codes()
        codes[name] = column_codes
        column_entropy[name] = _value_entropy(column_codes)
        non_null_count = column_entropy[name][1]
        distinct_count[name] = len(distinct)
        distinct_ratio[name] = len(distinct) / non_null_count if non_null_count else 0.0
    candidates: List[FDCandidate] = []
    for determinant in names:
        if distinct_ratio[determinant] > max_determinant_distinct_ratio:
            continue
        if distinct_count[determinant] <= 1:
            continue
        det_codes = codes[determinant]
        det_mask = [code >= 0 for code in det_codes] if -1 in det_codes else None
        for dependent in names:
            if dependent == determinant:
                continue
            if distinct_count[dependent] <= 1:
                continue
            dep_codes = codes[dependent]
            if det_mask is None:
                h_rhs, total = column_entropy[dependent]
            else:
                h_rhs, total = _value_entropy(compress(dep_codes, det_mask))
            violating = _disagreeing_groups(det_codes, dep_codes)
            if total == 0:
                score = 0.0
            elif h_rhs == 0.0:
                score = 1.0
            else:
                h_conditional = 0.0
                for counts in violating:
                    h_conditional += (sum(counts) / total) * _entropy(counts)
                score = max(0.0, 1.0 - h_conditional / h_rhs)
            if score < min_score:
                continue
            candidates.append(
                FDCandidate(
                    determinant=determinant,
                    dependent=dependent,
                    score=score,
                    violating_groups=len(violating),
                    violating_rows=sum(sum(counts) - max(counts) for counts in violating),
                )
            )
    candidates.sort(key=lambda c: (-c.score, c.determinant, c.dependent))
    return candidates
