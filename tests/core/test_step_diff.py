"""The step diffs skip only columns a statement provably left alone.

``diff_tables`` and ``strict_table_edits`` skip a column whose ``Column``
object both table versions share under a shared row-id column.
``diff_oracle.py`` keeps the full comparisons; over any pair of versions —
shared columns, rewritten columns, removed or reordered rows, values that
differ only in type or surface form — the skipping diffs must answer exactly
like them, in content and in order.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import CocoonCleaner, load_dataset
from repro.core.context import ROW_ID_COLUMN
from repro.core.operators.base import diff_tables, strict_table_edits
from repro.dataframe.column import Column
from repro.dataframe.table import Table
from repro.sql.ast_nodes import ColumnRef, CreateTableAs, Star
from repro.sql.database import split_statements
from repro.sql.parser import parse

from diff_oracle import diff_tables_baseline, strict_table_edits_baseline

# Values that are equal, or print alike, across types: the two predicates
# disagree on exactly these.
CELLS = st.sampled_from(
    [None, math.nan, 1, 1.0, True, 0, 0.0, -0.0, False, " 12", 12, "12", 12.0, "x", "", "true"]
)
DATA_COLUMNS = ["a", "b", "c"]


def _cell_key(value):
    return (type(value).__name__, repr(value))


def _repair_keys(repairs):
    return [
        (r.row_id, r.column, _cell_key(r.old_value), _cell_key(r.new_value), r.issue_type, r.reason)
        for r in repairs
    ]


def _edit_keys(edits):
    return [(row_id, column, _cell_key(old), _cell_key(new)) for row_id, column, old, new in edits]


@st.composite
def table_pairs(draw):
    """``(before, after)``: ``after`` shares, copies or rewrites each column."""
    n = draw(st.integers(0, 8))
    ids = Column(ROW_ID_COLUMN, list(range(n)))
    before = Table(
        "before", [ids] + [Column(c, [draw(CELLS) for _ in range(n)]) for c in DATA_COLUMNS]
    )
    rows = draw(st.sampled_from(["shared", "copied", "removed", "reordered"]))
    order = list(range(n))
    if rows == "removed":
        order = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))) if n else []
    elif rows == "reordered":
        order = draw(st.permutations(order))
    after_ids = ids if rows == "shared" else Column(ROW_ID_COLUMN, [ids.values[i] for i in order])
    columns = [after_ids]
    for name in DATA_COLUMNS:
        source = before.column(name)
        how = draw(st.sampled_from(["share", "copy", "rewrite", "drop"]))
        if how == "drop":
            continue
        if how == "share" and len(order) == n:
            columns.append(source)
        elif how == "rewrite":
            columns.append(Column(name, [draw(CELLS) for _ in order]))
        else:
            columns.append(Column(name, [source.values[i] for i in order], source.dtype))
    if draw(st.booleans()):
        columns.append(Column("extra", [draw(CELLS) for _ in order]))
    return before, Table("after", columns)


class TestParityWithFullDiff:
    @given(table_pairs())
    @settings(max_examples=400, deadline=None)
    def test_diff_tables(self, pair):
        before, after = pair
        repairs, removed = diff_tables(before, after, issue_type="t", reason="r")
        expected_repairs, expected_removed = diff_tables_baseline(before, after, issue_type="t", reason="r")
        assert _repair_keys(repairs) == _repair_keys(expected_repairs)
        assert removed == expected_removed

    @given(table_pairs())
    @settings(max_examples=400, deadline=None)
    def test_strict_table_edits(self, pair):
        before, after = pair
        assert _edit_keys(strict_table_edits(before, after)) == _edit_keys(
            strict_table_edits_baseline(before, after)
        )

    def test_shared_row_ids_with_rewritten_columns(self):
        ids = Column(ROW_ID_COLUMN, [0, 1, 2])
        kept = Column("a", [None, math.nan, " 12"])
        before = Table("before", [ids, kept, Column("b", [1, True, 0])])
        after = Table("after", [ids, kept, Column("b", [1.0, 1, False])])
        repairs, removed = diff_tables(before, after, "t", "r")
        assert _repair_keys(repairs) == _repair_keys(diff_tables_baseline(before, after, "t", "r")[0])
        assert removed == []
        edits = strict_table_edits(before, after)
        assert _edit_keys(edits) == _edit_keys(strict_table_edits_baseline(before, after))
        # Equal under ``==`` but not the same cells: only the strict diff reports them.
        assert [(row, col) for row, col, _, _ in edits] == [(0, "b"), (1, "b"), (2, "b")]


class TestIdentityFilter:
    """The diffs call their predicates only on cells whose objects differ.

    Equal values held as distinct objects must still reach the predicates,
    the very same object (NaN included) on both sides must not be reported,
    and a cast column, all new objects, is compared cell by cell.
    """

    @staticmethod
    def _assert_parity(before, after):
        repairs, removed = diff_tables(before, after, "t", "r")
        expected_repairs, expected_removed = diff_tables_baseline(before, after, "t", "r")
        assert _repair_keys(repairs) == _repair_keys(expected_repairs)
        assert removed == expected_removed
        edits = strict_table_edits(before, after)
        assert _edit_keys(edits) == _edit_keys(strict_table_edits_baseline(before, after))
        return repairs, edits

    @pytest.mark.parametrize("same_rows", [True, False], ids=["shared-ids", "copied-ids"])
    def test_equal_values_as_distinct_objects(self, same_rows):
        # Built at run time, so each value is its own object.
        olds = ["".join(["a", "b"]), int("1000"), float("2.5"), float("nan"), str(12)]
        news = ["".join(["a", "b"]), int("1000"), float("2.5"), float("nan"), 12.0]
        assert all(old is not new for old, new in zip(olds, news))
        ids = Column(ROW_ID_COLUMN, list(range(len(olds))))
        after_ids = ids if same_rows else Column(ROW_ID_COLUMN, list(ids.values))
        before = Table("before", [ids, Column("a", olds)])
        after = Table("after", [after_ids, Column("a", news)])
        repairs, edits = self._assert_parity(before, after)
        assert _repair_keys(repairs) == []
        assert [(row, col) for row, col, _, _ in edits] == [(4, "a")]

    def test_same_nan_object_on_both_sides(self):
        nan = float("nan")
        ids = Column(ROW_ID_COLUMN, [0, 1, 2])
        before = Table("before", [ids, Column("a", [nan, 1, nan])])
        after = Table("after", [ids, Column("a", [nan, 2, None])])
        repairs, edits = self._assert_parity(before, after)
        assert [(r.row_id, r.column) for r in repairs] == [(1, "a")]
        assert [(row, col) for row, col, _, _ in edits] == [(1, "a")]

    def test_cast_column_all_new_objects(self):
        texts = ["12", " 7", "x", None, "3.5", "0"]
        ids = Column(ROW_ID_COLUMN, list(range(len(texts))))
        other = Column("b", ["p", "q", "r", "s", "t", "u"])
        before = Table("before", [ids, Column("a", texts), other])
        cast = [None if t is None or t == "x" else float(t) for t in texts]
        after = Table("after", [ids, Column("a", cast), other])
        repairs, edits = self._assert_parity(before, after)
        # Only the failed cast changes the canonical text; "3.5" → 3.5 prints alike.
        assert [r.row_id for r in repairs] == [2]
        assert [row for row, _, _, _ in edits] == [0, 1, 2, 5]

    def test_removed_and_reordered_rows_keep_scan_order(self):
        ids = Column(ROW_ID_COLUMN, [10, 11, 12, 13])
        before = Table("before", [ids, Column("a", [1, 2, 3, 4]), Column("b", ["w", "x", "y", "z"])])
        after = Table(
            "after",
            [Column(ROW_ID_COLUMN, [13, 10, 12]), Column("b", ["Z", "w", "Y"]), Column("a", [40, 1, 3])],
        )
        repairs, edits = self._assert_parity(before, after)
        assert [(r.row_id, r.column) for r in repairs] == [(12, "b"), (13, "b"), (13, "a")]
        assert diff_tables(before, after, "t", "r")[1] == [11]


class TestMissingRowIds:
    """Both diffs reject a table without the row-id column the same way."""

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_both_diffs_raise_the_same_error(self, side):
        with_ids = Table("t", [Column(ROW_ID_COLUMN, [0, 1]), Column("a", [1, 2])])
        without = Table("t", [Column("a", [1, 2])])
        before, after = (without, with_ids) if side == "before" else (with_ids, without)
        with pytest.raises(ValueError, match="row-id column") as from_diff:
            diff_tables(before, after, issue_type="t", reason="r")
        with pytest.raises(ValueError, match="row-id column") as from_strict:
            strict_table_edits(before, after)
        assert str(from_diff.value) == str(from_strict.value)


def _passthrough_columns(statement: CreateTableAs, before: Table):
    """Output columns the statement passes through by name, or None when it may move rows."""
    query = statement.query
    if query.where is not None or query.qualify is not None:
        return None
    names = set()
    for item in query.items:
        expr = item.expression
        if isinstance(expr, Star):
            names.update(before.column_names)
        elif isinstance(expr, ColumnRef) and item.alias in (None, expr.name):
            names.add(expr.name)
    return names


def test_hospital_steps_share_every_column_they_did_not_write():
    """Each step of a real clean passes its untouched columns through as the same objects.

    The first statement reads the input table registered from outside, whose
    declared dtypes the executor re-infers, so its output shares nothing.
    """
    cleaner = CocoonCleaner()
    result = cleaner.clean(load_dataset("hospital", scale=0.1).dirty)
    statements = [parse(sql) for sql in split_statements(result.sql_script)]
    assert len(statements) > 5
    db = cleaner.database
    checked = 0
    for statement in statements[1:]:
        before = db.table(statement.query.from_table)
        after = db.table(statement.name)
        passthrough = _passthrough_columns(statement, before)
        if passthrough is None:
            continue
        for column in after.columns:
            shared = column.name in before and column is before.column(column.name)
            assert shared == (column.name in passthrough), (statement.name, column.name)
            checked += shared
    assert checked > 100
