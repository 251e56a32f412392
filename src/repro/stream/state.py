"""Cross-batch state for table-level plan steps (dedup, uniqueness).

Row-local plan steps replay on a micro-batch in isolation; duplicate removal
and key-uniqueness reason *across* rows, so their streaming replay keeps
state between batches.  This module mirrors the SQL the batch operators emit
— ``QUALIFY ROW_NUMBER() OVER (PARTITION BY ... ORDER BY ...) = 1`` — cell
for cell:

* partition keys use the executor's ``_hashable`` normalisation (NULL folds
  to one key; unhashable values stringify);
* keep-order uses the executor's ``_sort_key`` (numbers by value before
  text by code point, DESC reversing both, NULL and NaN last either way)
  and the least key wins, ties going to the earliest row — exactly the row
  the executor's QUALIFY keeps;
* output preserves input row order, like QUALIFY filtering a SELECT.

The fold is incremental per key, and its state is O(distinct keys):

* a step with no keep-best step upstream sees an input that only grows, so
  it keeps just each key's winner — the first row id (keep-first: dedup,
  uniqueness ordered by arrival) or the row id and order value of the best
  row (keep-best: uniqueness with ``ORDER BY col DESC``).  A keep-best step's
  later row can beat an already-emitted one, which surfaces as a
  **retraction** in the batch delta, the streaming-systems answer to
  non-monotonic operators;
* a step downstream of a keep-best step keeps every current input row as a
  candidate of its key: when a retraction upstream removes its winner, the
  next-best candidate resurfaces.

Each batch's changes propagate step by step as net additions and removals,
so a batch costs O(batch) plus the candidates of the keys it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.plan import PlanStep
# The QUALIFY replay must agree with the SQL executor bit for bit, so it
# borrows the executor's own key normalisers rather than re-deriving them.
from repro.sql.executor import _hashable, _sort_key

Row = Tuple[Any, ...]  # data-column values, in plan column order


@dataclass
class TableLevelDelta:
    """What one batch did to the cumulative cleaned output."""

    #: Rows that joined the output, sorted by row id.  A row an upstream
    #: retraction lets resurface can be older than the batch.
    kept: List[Tuple[int, Row]] = field(default_factory=list)
    #: This batch's rows that are not in the output, in batch order.
    dropped_row_ids: List[int] = field(default_factory=list)
    #: Previously emitted rows that a later row displaced (keep-best only), sorted.
    retracted_row_ids: List[int] = field(default_factory=list)
    #: row id → index (into the fold's step list) of the step that removed it,
    #: for dropped *and* retracted rows — the lineage layer's attribution.
    removed_by_step: Dict[int, int] = field(default_factory=dict)


class _Changes:
    """Net changes to one step's output within a batch."""

    __slots__ = ("added", "removed")

    def __init__(self) -> None:
        self.added: Dict[int, Row] = {}
        self.removed: Dict[int, None] = {}

    def add(self, row_id: int, row: Row) -> None:
        if row_id in self.removed:
            # Re-adding a row removed earlier in the batch restores the old output.
            del self.removed[row_id]
        else:
            self.added[row_id] = row

    def remove(self, row_id: int) -> None:
        if row_id in self.added:
            # Removing a row added earlier in the batch leaves the old output.
            del self.added[row_id]
        else:
            self.removed[row_id] = None


class _StepFold:
    """One table-level step's share of the fold.

    ``winners`` maps each key to its winner's rank: the row id for
    keep-first, ``(row id, order value)`` for keep-best.  The least
    :meth:`_sort` form wins: ties go to the earlier row, as the executor's
    stable sort does.  A step with ``candidates`` also keeps every current
    input row, by row id (``members``) and by key (``groups``).
    """

    __slots__ = ("key_idx", "order", "winners", "members", "groups")

    def __init__(self, key_idx: List[int], order: Optional[Tuple[int, bool]], candidates: bool):
        self.key_idx = key_idx
        self.order = order
        self.winners: Dict[Tuple, Any] = {}
        self.members: Optional[Dict[int, Tuple[Tuple, Row]]] = {} if candidates else None
        self.groups: Dict[Tuple, Dict[int, Any]] = {}

    def __len__(self) -> int:
        return len(self.winners) if self.members is None else len(self.members)

    def _winner_id(self, rank: Any) -> int:
        return rank if self.order is None else rank[0]

    def _sort(self, rank: Any) -> Any:
        # Sort keys are derived on comparison rather than stored: a stored
        # key per winner would copy every order value.
        if self.order is None:
            return rank
        return _sort_key(rank[1], self.order[1]), rank[0]

    def _ranks(self, rows: Sequence[Tuple[int, Row]]) -> List[Any]:
        if self.order is None:
            return [row_id for row_id, _ in rows]
        order_idx = self.order[0]
        return [(row_id, row[order_idx]) for row_id, row in rows]

    def holds(self, row_id: int, row: Row) -> bool:
        """Whether the row is in this step's current output."""
        rank = self.winners.get(_batch_step_keys([row], [self.key_idx])[0][0])
        return rank is not None and self._winner_id(rank) == row_id

    def apply(
        self, added: Sequence[Tuple[int, Row]], removed: Sequence[int]
    ) -> _Changes:
        """Fold net input changes; return the net output changes."""
        out = _Changes()
        winners, members, groups = self.winners, self.members, self.groups
        for row_id in removed:
            # Only candidate steps see removals: their upstream retracts.
            key, _row = members.pop(row_id)
            group = groups[key]
            del group[row_id]
            if self._winner_id(winners[key]) != row_id:
                continue
            out.remove(row_id)
            if group:
                best = winners[key] = min(group.values(), key=self._sort)
                best_id = self._winner_id(best)
                out.add(best_id, members[best_id][1])
            else:
                del winners[key], groups[key]
        keys = _batch_step_keys([row for _, row in added], [self.key_idx])[0]
        for (row_id, row), key, rank in zip(added, keys, self._ranks(added)):
            if members is not None:
                members[row_id] = (key, row)
                groups.setdefault(key, {})[row_id] = rank
            incumbent = winners.get(key)
            if incumbent is None:
                winners[key] = rank
                out.add(row_id, row)
            elif self._sort(rank) < self._sort(incumbent):
                winners[key] = rank
                out.remove(self._winner_id(incumbent))
                out.add(row_id, row)
        return out


class TableLevelState:
    """Streaming fold of a plan's table-level steps over arriving rows.

    ``apply_batch`` consumes rows *after* row-local replay, in row-id order,
    and returns the delta against the cumulative survivor set.  The
    invariant (pinned by the differential tests against the QUALIFY SQL and
    the whole-history oracle): after any sequence of batches, the surviving
    ``(row_id, row)`` pairs equal :func:`table_level_survivors` — and
    therefore the QUALIFY SQL — applied to the concatenation of all batches.
    """

    def __init__(self, steps: Sequence[PlanStep], column_names: Sequence[str]):
        for step in steps:
            if step.row_local:
                raise ValueError(f"Step {step.kind}:{step.target} is row-local")
        self.steps = list(steps)
        self.column_names = list(column_names)
        self.reset()

    # -- folding ----------------------------------------------------------------------
    def apply_batch(self, rows: Sequence[Tuple[int, Row]]) -> TableLevelDelta:
        """Fold one batch of (row_id, values) pairs; row ids must be increasing."""
        if not self._folds:
            for row_id, row in rows:
                self._survivors[row_id] = row
            return TableLevelDelta(kept=list(rows))
        added: Sequence[Tuple[int, Row]] = rows
        removed: Sequence[int] = ()
        for fold in self._folds:
            changes = fold.apply(added, removed)
            added, removed = list(changes.added.items()), list(changes.removed)
        survivors = self._survivors
        delta = TableLevelDelta(kept=sorted(added), retracted_row_ids=sorted(removed))
        removals = [(row_id, survivors.pop(row_id)) for row_id in delta.retracted_row_ids]
        survivors.update(delta.kept)
        for row_id, row in rows:
            if row_id not in survivors:
                delta.dropped_row_ids.append(row_id)
                removals.append((row_id, row))
        delta.removed_by_step = {
            row_id: self._removing_step(row_id, row) for row_id, row in removals
        }
        return delta

    def _removing_step(self, row_id: int, row: Row) -> int:
        """Index of the first step whose output does not hold the row."""
        for index, fold in enumerate(self._folds):
            if not fold.holds(row_id, row):
                return index
        raise AssertionError(f"Row {row_id} survives every step")  # pragma: no cover

    # -- read side ----------------------------------------------------------------------
    @property
    def survivors(self) -> Dict[int, Row]:
        return dict(self._survivors)

    @property
    def survivor_count(self) -> int:
        """``len(survivors)`` without copying them."""
        return len(self._survivors)

    def step_sizes(self) -> List[int]:
        """Entries each step's fold holds: its winners, or its candidates
        downstream of a keep-best step."""
        return [len(fold) for fold in self._folds]

    def reset(self) -> None:
        """Forget everything (used when a re-plan rebuilds the output)."""
        self._folds: List[_StepFold] = []
        keep_best_upstream = False
        for step in self.steps:
            key_idx, order = _order_spec(step, self.column_names)
            self._folds.append(_StepFold(key_idx, order, candidates=keep_best_upstream))
            keep_best_upstream = keep_best_upstream or order is not None
        self._survivors: Dict[int, Row] = {}


def _order_spec(
    step: PlanStep, column_names: Sequence[str]
) -> Tuple[List[int], Optional[Tuple[int, bool]]]:
    """(partition column indexes, (order column index, descending) or None).

    ``None`` order means "first arrival wins" (ORDER BY the hidden row id),
    which every dedup step and order-less uniqueness step uses.
    """
    column_index = {name: i for i, name in enumerate(column_names)}
    if step.kind == "dedup":
        cols = step.payload.get("columns") or column_names
        return [column_index[c] for c in cols], None
    if step.kind == "unique":
        key = [column_index[step.payload["column"]]]
        order_column = step.payload.get("order_column")
        if order_column is None:
            return key, None
        return key, (column_index[order_column], True)
    raise ValueError(f"Unknown table-level step kind {step.kind!r}")


def _batch_step_keys(
    rows: Sequence[Row], key_indexes: Sequence[List[int]]
) -> List[List[Tuple]]:
    """Per-step partition keys for a batch, built column-major.

    Each column index referenced by any step is normalised through
    ``_hashable`` exactly once for the whole batch; per-step key tuples are
    then assembled with ``zip`` over the shared normalised vectors.  Key
    tuples are identical to the row-major ``tuple(_hashable(row[i]) ...)``
    form, so they interoperate with keys stored across batches.
    """
    needed = {i for key_idx in key_indexes for i in key_idx}
    normalised = {i: [_hashable(row[i]) for row in rows] for i in needed}
    step_keys: List[List[Tuple]] = []
    for key_idx in key_indexes:
        if key_idx:
            step_keys.append(list(zip(*(normalised[i] for i in key_idx))))
        else:
            step_keys.append([()] * len(rows))
    return step_keys


def table_level_survivors(
    steps: Sequence[PlanStep],
    rows: Sequence[Tuple[int, Row]],
    column_names: Sequence[str],
    removed_by_step: Optional[Dict[int, int]] = None,
) -> List[Tuple[int, Row]]:
    """Batch oracle: apply the table-level steps to ``rows`` in one pass.

    Semantically identical to chaining the operators' QUALIFY statements on a
    table containing ``rows`` (in row-id order): the whole-history reference
    the incremental fold is tested against.

    When ``removed_by_step`` is given, every filtered row id is recorded in it
    against the index of the step that removed it.
    """
    current = list(rows)
    for step_index, step in enumerate(steps):
        key_idx, order = _order_spec(step, column_names)
        keys = _batch_step_keys([row for _, row in current], [key_idx])[0]
        sort_keys: Optional[List[Tuple]] = None
        if order is not None:
            order_idx, descending = order
            sort_keys = [_sort_key(row[order_idx], descending) for _, row in current]
        winners: Dict[Tuple, int] = {}
        for position, key in enumerate(keys):
            if sort_keys is None:
                # ORDER BY row id: first arrival wins.
                if key not in winners:
                    winners[key] = position
                continue
            incumbent = winners.get(key)
            if incumbent is None:
                winners[key] = position
                continue
            # Strict improvement required: stable sort keeps the earlier row
            # on ties, and rows arrive in row-id order.
            if sort_keys[position] < sort_keys[incumbent]:
                winners[key] = position
        keep_positions = set(winners.values())
        if removed_by_step is not None:
            for position, (row_id, _row) in enumerate(current):
                if position not in keep_positions:
                    removed_by_step[row_id] = step_index
        current = [entry for position, entry in enumerate(current) if position in keep_positions]
    return current
