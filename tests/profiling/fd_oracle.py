"""Parity oracle for FD discovery: the original per-pair string grouping.

``repro.profiling.fd`` counts each column pair over per-column dictionary
codes.  The definitions below group stringified cells per row, one string
``Counter`` per determinant value, re-reading the table for every pair;
``test_fd_parity.py`` holds the coded kernels to them bit for bit.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.profiling.fd import FDCandidate, _entropy


def fd_entropy_score(table: Table, determinant: str, dependent: str) -> float:
    """Score ``determinant -> dependent`` in [0, 1]; 1.0 means the FD holds exactly."""
    lhs = table.column(determinant).values
    rhs = table.column(dependent).values
    pairs = [
        (str(l), str(r))
        for l, r in zip(lhs, rhs)
        if not is_null(l) and not is_null(r)
    ]
    if not pairs:
        return 0.0
    rhs_counts = Counter(r for _, r in pairs)
    h_rhs = _entropy(list(rhs_counts.values()))
    if h_rhs == 0.0:
        return 1.0
    groups: Dict[str, Counter] = defaultdict(Counter)
    for l, r in pairs:
        groups[l][r] += 1
    total = len(pairs)
    h_conditional = 0.0
    for counter in groups.values():
        group_total = sum(counter.values())
        h_conditional += (group_total / total) * _entropy(list(counter.values()))
    return max(0.0, 1.0 - h_conditional / h_rhs)


def fd_violation_groups(
    table: Table, determinant: str, dependent: str
) -> List[Tuple[str, List[Tuple[str, int]]]]:
    """Groups of determinant values whose dependent values disagree, by string ``Counter``."""
    lhs = table.column(determinant).values
    rhs = table.column(dependent).values
    groups: Dict[str, Counter] = defaultdict(Counter)
    for l, r in zip(lhs, rhs):
        if is_null(l) or is_null(r):
            continue
        groups[str(l)][str(r)] += 1
    violations = []
    for lhs_value, counter in groups.items():
        if len(counter) > 1:
            violations.append((lhs_value, counter.most_common()))
    violations.sort(key=lambda item: -sum(c for _, c in item[1]))
    return violations


def discover_fds_baseline(
    table: Table,
    min_score: float = 0.9,
    max_determinant_distinct_ratio: float = 0.95,
    columns: Sequence[str] = (),
) -> List[FDCandidate]:
    """The original O(k²) re-materialising discovery loop.

    Calls :func:`fd_entropy_score` and :func:`fd_violation_groups` per column
    pair, re-reading and re-stringifying the table each time.
    ``test_fd_parity.py`` pins :func:`~repro.profiling.fd.discover_fds` to its
    exact output.
    """
    names = list(columns) if columns else table.column_names
    candidates: List[FDCandidate] = []
    distinct_ratio = {}
    distinct_count = {}
    for name in names:
        column = table.column(name)
        non_null = column.non_null()
        distinct = len(set(str(v) for v in non_null))
        distinct_count[name] = distinct
        distinct_ratio[name] = distinct / len(non_null) if non_null else 0.0
    for determinant in names:
        if distinct_ratio[determinant] > max_determinant_distinct_ratio:
            continue
        if distinct_count[determinant] <= 1:
            continue
        for dependent in names:
            if dependent == determinant:
                continue
            if distinct_count[dependent] <= 1:
                continue
            score = fd_entropy_score(table, determinant, dependent)
            if score < min_score:
                continue
            violations = fd_violation_groups(table, determinant, dependent)
            violating_rows = sum(
                sum(c for _, c in rhs[1:]) for _, rhs in violations
            )
            candidates.append(
                FDCandidate(
                    determinant=determinant,
                    dependent=dependent,
                    score=score,
                    violating_groups=len(violations),
                    violating_rows=violating_rows,
                )
            )
    candidates.sort(key=lambda c: (-c.score, c.determinant, c.dependent))
    return candidates
