"""Whole-history oracle for the streaming table-level fold.

Keeps every row it has seen and, on each batch, recomputes the survivors of
the whole history with :func:`repro.stream.state.table_level_survivors`,
then derives the batch's delta by comparing survivor sets.  That costs
O(history) per batch — the reason the real fold is incremental — but it is
obviously right, so the incremental fold's per-batch deltas are tested
against it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.stream.state import Row, TableLevelDelta, table_level_survivors


class RefoldOracle:
    """Per-batch :class:`TableLevelDelta` by refolding the whole history."""

    def __init__(self, steps, column_names: Sequence[str]):
        self.steps = list(steps)
        self.column_names = list(column_names)
        self.history: List[Tuple[int, Row]] = []
        self.survivors: Dict[int, Row] = {}

    def apply_batch(self, batch: Sequence[Tuple[int, Row]]) -> TableLevelDelta:
        self.history.extend(batch)
        previous = self.survivors
        removed_by: Dict[int, int] = {}
        current = dict(
            table_level_survivors(
                self.steps, self.history, self.column_names, removed_by_step=removed_by
            )
        )
        delta = TableLevelDelta()
        delta.kept = [(row_id, current[row_id]) for row_id in sorted(current) if row_id not in previous]
        delta.retracted_row_ids = [row_id for row_id in sorted(previous) if row_id not in current]
        delta.dropped_row_ids = [row_id for row_id, _ in batch if row_id not in current]
        delta.removed_by_step = {
            row_id: removed_by[row_id]
            for row_id in delta.retracted_row_ids + delta.dropped_row_ids
            if row_id in removed_by
        }
        self.survivors = current
        return delta
