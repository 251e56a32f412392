"""Parity oracle for the step diffs: the full-table comparisons.

``repro.core.operators.base`` skips every column whose ``Column`` object the
two table versions share under a shared row-id column.  The functions below
are the diffs before that skip, their logic copied unchanged: they compare
every shared column on every row.  ``test_step_diff.py`` holds the skipping
diffs to these.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.context import ROW_ID_COLUMN
from repro.core.operators.base import _cell_changed
from repro.core.result import CellRepair
from repro.dataframe.table import Table
from repro.obs.lineage import values_strictly_differ


def diff_tables_baseline(
    before: Table,
    after: Table,
    issue_type: str,
    reason: str,
) -> Tuple[List[CellRepair], List[int]]:
    """Cell-level diff between two versions of a table keyed by the row-id column."""
    if ROW_ID_COLUMN not in before.column_names or ROW_ID_COLUMN not in after.column_names:
        raise ValueError("diff_tables requires both tables to carry the row-id column")
    after_index: Dict[Any, int] = {}
    after_ids = after.column(ROW_ID_COLUMN).values
    for i, row_id in enumerate(after_ids):
        after_index[row_id] = i
    shared_columns = [
        c for c in after.column_names if c != ROW_ID_COLUMN and c in before.column_names
    ]
    repairs: List[CellRepair] = []
    removed: List[int] = []
    before_ids = before.column(ROW_ID_COLUMN).values
    before_cols = {c: before.column(c).values for c in shared_columns}
    after_cols = {c: after.column(c).values for c in shared_columns}
    for i, row_id in enumerate(before_ids):
        j = after_index.get(row_id)
        if j is None:
            removed.append(int(row_id))
            continue
        for column in shared_columns:
            old = before_cols[column][i]
            new = after_cols[column][j]
            if _cell_changed(old, new):
                repairs.append(
                    CellRepair(
                        row_id=int(row_id),
                        column=column,
                        old_value=old,
                        new_value=new,
                        issue_type=issue_type,
                        reason=reason,
                    )
                )
    return repairs, removed


def strict_table_edits_baseline(before: Table, after: Table) -> List[Tuple[int, str, Any, Any]]:
    """Strict cell diff between two table versions, keyed by the row-id column.

    Unlike :func:`diff_tables` (which uses the canonical-text repair predicate)
    this uses :func:`~repro.obs.lineage.values_strictly_differ` — the same
    predicate as ``repro.datasets.base.strict_differs`` — because the lineage
    contract promises to explain *every* surface change, including pure
    representation changes such as a cast turning ``'12'`` into ``12.0``.
    Rows absent from ``after`` are skipped (they are recorded as removals).
    """
    after_index: Dict[Any, int] = {}
    for i, row_id in enumerate(after.column(ROW_ID_COLUMN).values):
        after_index[row_id] = i
    shared_columns = [
        c for c in after.column_names if c != ROW_ID_COLUMN and c in before.column_names
    ]
    before_ids = before.column(ROW_ID_COLUMN).values
    before_cols = {c: before.column(c).values for c in shared_columns}
    after_cols = {c: after.column(c).values for c in shared_columns}
    edits: List[Tuple[int, str, Any, Any]] = []
    for i, row_id in enumerate(before_ids):
        j = after_index.get(row_id)
        if j is None:
            continue
        for column in shared_columns:
            old = before_cols[column][i]
            new = after_cols[column][j]
            if values_strictly_differ(old, new):
                edits.append((int(row_id), column, old, new))
    return edits
