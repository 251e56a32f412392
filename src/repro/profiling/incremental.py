"""Incrementally maintained table-level statistics (FDs, duplicate rows).

The batch profilers re-scan the whole table: :func:`~repro.profiling.fd.discover_fds`
rebuilds every determinant index and :func:`~repro.profiling.duplicates.duplicate_row_count`
re-hashes every row.  The streaming layer instead folds each micro-batch into
persistent counters:

* :class:`IncrementalFDState` keeps, for every ordered column pair, the
  determinant → dependent co-occurrence counters that entropy scoring and
  violation grouping need.  :meth:`IncrementalFDState.candidates` then
  reproduces ``discover_fds`` on the union of all batches *exactly* — same
  float scores (the counters are consumed in the same first-occurrence order,
  so the float accumulation order matches), same violation tie order.
* :class:`IncrementalDuplicateState` counts exact duplicate rows across
  batches, matching ``duplicate_row_count``; it keeps one key per distinct
  row and no row copies.

Both are O(batch) per update.  Memory is proportional to the number of
distinct values (FD state: per column pair), which the registry benchmarks
keep small; callers with adversarial cardinalities should fall back to batch
profiling.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.profiling.duplicates import _row_keys
from repro.profiling.fd import FDCandidate, _entropy


class IncrementalFDState:
    """Mergeable co-occurrence counters behind single-attribute FD discovery."""

    def __init__(self, columns: Sequence[str]):
        if len(set(columns)) != len(columns):
            raise ValueError(f"Duplicate column names: {list(columns)}")
        self.columns: List[str] = list(columns)
        self.row_count = 0
        # Per column: value -> count over non-null stringified cells.
        self._value_counts: Dict[str, Counter] = {name: Counter() for name in self.columns}
        self._null_counts: Dict[str, int] = {name: 0 for name in self.columns}
        # Per ordered pair (det, dep): lhs -> Counter(rhs), plus the flat rhs
        # counter and pair total that entropy scoring reads.  Insertion order
        # of every dict mirrors first occurrence in row order, which keeps the
        # float accumulation order (and thus the scores) identical to the
        # batch discovery.
        self._groups: Dict[Tuple[str, str], Dict[str, Counter]] = {}
        self._rhs_counts: Dict[Tuple[str, str], Counter] = {}
        self._pair_totals: Dict[Tuple[str, str], int] = {}
        for det in self.columns:
            for dep in self.columns:
                if det == dep:
                    continue
                self._groups[(det, dep)] = {}
                self._rhs_counts[(det, dep)] = Counter()
                self._pair_totals[(det, dep)] = 0

    # -- ingestion ---------------------------------------------------------------
    def update(self, batch: Table) -> "IncrementalFDState":
        """Fold one micro-batch (same schema, rows in arrival order) into the state."""
        missing = [c for c in self.columns if c not in batch.column_names]
        if missing:
            raise ValueError(f"Batch is missing tracked columns {missing}")
        strings: Dict[str, List[Optional[str]]] = {}
        for name in self.columns:
            values = batch.column(name).values
            strings[name] = [None if is_null(v) else str(v) for v in values]
            counter = self._value_counts[name]
            nulls = 0
            for text in strings[name]:
                if text is None:
                    nulls += 1
                else:
                    counter[text] += 1
            self._null_counts[name] += nulls
        self.row_count += batch.num_rows
        for det in self.columns:
            det_strings = strings[det]
            for dep in self.columns:
                if dep == det:
                    continue
                dep_strings = strings[dep]
                pair = (det, dep)
                groups = self._groups[pair]
                rhs_counts = self._rhs_counts[pair]
                total = 0
                for lhs, rhs in zip(det_strings, dep_strings):
                    if lhs is None or rhs is None:
                        continue
                    total += 1
                    rhs_counts[rhs] += 1
                    group = groups.get(lhs)
                    if group is None:
                        group = groups[lhs] = Counter()
                    group[rhs] += 1
                self._pair_totals[pair] += total
        return self

    # -- read side ----------------------------------------------------------------
    def distinct_count(self, column: str) -> int:
        return len(self._value_counts[column])

    def non_null_count(self, column: str) -> int:
        return self.row_count - self._null_counts[column]

    def candidates(
        self,
        min_score: float = 0.9,
        max_determinant_distinct_ratio: float = 0.95,
    ) -> List[FDCandidate]:
        """FD candidates over everything seen so far — identical to running
        :func:`~repro.profiling.fd.discover_fds` on the concatenated batches."""
        candidates: List[FDCandidate] = []
        distinct_ratio = {}
        for name in self.columns:
            non_null = self.non_null_count(name)
            distinct_ratio[name] = self.distinct_count(name) / non_null if non_null else 0.0
        for det in self.columns:
            if distinct_ratio[det] > max_determinant_distinct_ratio:
                continue
            if self.distinct_count(det) <= 1:
                continue
            for dep in self.columns:
                if dep == det:
                    continue
                if self.distinct_count(dep) <= 1:
                    continue
                pair = (det, dep)
                total = self._pair_totals[pair]
                if total == 0:
                    score = 0.0
                else:
                    h_rhs = _entropy(list(self._rhs_counts[pair].values()))
                    if h_rhs == 0.0:
                        score = 1.0
                    else:
                        h_conditional = 0.0
                        for counter in self._groups[pair].values():
                            group_total = sum(counter.values())
                            h_conditional += (group_total / total) * _entropy(list(counter.values()))
                        score = max(0.0, 1.0 - h_conditional / h_rhs)
                if score < min_score:
                    continue
                violations = [
                    (lhs_value, counter.most_common())
                    for lhs_value, counter in self._groups[pair].items()
                    if len(counter) > 1
                ]
                violations.sort(key=lambda item: -sum(c for _, c in item[1]))
                violating_rows = sum(sum(c for _, c in rhs[1:]) for _, rhs in violations)
                candidates.append(
                    FDCandidate(
                        determinant=det,
                        dependent=dep,
                        score=score,
                        violating_groups=len(violations),
                        violating_rows=violating_rows,
                    )
                )
        candidates.sort(key=lambda c: (-c.score, c.determinant, c.dependent))
        return candidates

    def violation_groups(
        self, determinant: str, dependent: str
    ) -> List[Tuple[str, List[Tuple[str, int]]]]:
        """Violating determinant groups for one pair, mirroring
        :func:`~repro.profiling.fd.fd_violation_groups` on the union."""
        groups = self._groups[(determinant, dependent)]
        violations = [
            (lhs_value, counter.most_common())
            for lhs_value, counter in groups.items()
            if len(counter) > 1
        ]
        violations.sort(key=lambda item: -sum(c for _, c in item[1]))
        return violations


class IncrementalDuplicateState:
    """Cross-batch exact-duplicate accounting: a set of row keys and a row count."""

    def __init__(self) -> None:
        self.row_count = 0
        self._keys: Set[Tuple[str, ...]] = set()

    def update(self, batch: Table) -> "IncrementalDuplicateState":
        """Fold one micro-batch into the duplicate counters."""
        self._keys.update(_row_keys(batch))
        self.row_count += batch.num_rows
        return self

    @property
    def duplicate_rows(self) -> int:
        """Rows that duplicate an earlier row — matches ``duplicate_row_count``."""
        return self.row_count - len(self._keys)
