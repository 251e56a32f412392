"""Property tests: sqlite-lowered expressions agree with the in-process engine.

For randomly generated value maps, NULL lists, and numeric thresholds, the
SQL rendered by :class:`SqliteDialect` and executed by stdlib ``sqlite3``
must produce the same cells as the SQL rendered by :class:`ReproDialect`
and executed by the in-process engine — the per-expression version of the
end-to-end differential suite.
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dialects import ReproDialect, SqliteDialect
from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.sql.database import Database
from repro.sql.functions import SCALAR_FUNCTIONS

# Cells as the cleaning pipeline actually sees them: messy strings, numbers,
# NULLs.  Text is drawn from a small alphabet so mapping keys collide with
# column values often enough to exercise the CASE branches.
cell_text = st.text(alphabet="abx 019.-", min_size=0, max_size=5)
cells = st.one_of(
    st.none(),
    cell_text,
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-100, max_value=100)


def run_both(expr_repro, expr_sqlite, values):
    db = Database()
    db.register(Table.from_rows("t", ["v"], [[v] for v in values]), replace=True)
    in_process = db.column_values(f"SELECT {expr_repro} AS r FROM t")

    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (v)")
        conn.executemany("INSERT INTO t VALUES (?)", [(v,) for v in values])
        from_sqlite = [row[0] for row in conn.execute(f"SELECT {expr_sqlite} FROM t")]
    finally:
        conn.close()
    return in_process, from_sqlite


def assert_cells_agree(in_process, from_sqlite):
    for a, b in zip(in_process, from_sqlite):
        if is_null(a) or is_null(b):
            assert is_null(a) and is_null(b), f"{a!r} vs {b!r}"
        else:
            assert str(a) == str(b) or float(a) == float(b), f"{a!r} vs {b!r}"


class TestMappingParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(cell_text.filter(bool), cell_text, min_size=1, max_size=4),
        st.lists(cells, min_size=1, max_size=8),
    )
    def test_value_map(self, mapping, values):
        repro_expr = ReproDialect().case_when_mapping("v", mapping)
        sqlite_expr = SqliteDialect().case_when_mapping("v", mapping)
        assert_cells_agree(*run_both(repro_expr, sqlite_expr, values))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(cell_text.filter(bool), min_size=1, max_size=4, unique=True),
        st.lists(cells, min_size=1, max_size=8),
    )
    def test_null_values(self, null_tokens, values):
        repro_expr = ReproDialect().case_when_null("v", null_tokens)
        sqlite_expr = SqliteDialect().case_when_null("v", null_tokens)
        assert_cells_agree(*run_both(repro_expr, sqlite_expr, values))


class TestThresholdParity:
    @settings(max_examples=60, deadline=None)
    @given(finite, finite, st.lists(st.one_of(st.none(), finite), min_size=1, max_size=8))
    def test_numeric_columns(self, low, high, values):
        low, high = min(low, high), max(low, high)
        repro_expr = ReproDialect().case_when_threshold("v", low, high)
        sqlite_expr = SqliteDialect().case_when_threshold("v", low, high)
        assert_cells_agree(*run_both(repro_expr, sqlite_expr, values))

    @settings(max_examples=40, deadline=None)
    @given(finite, st.lists(cell_text, min_size=1, max_size=6))
    def test_text_columns_agree(self, bound, values):
        # In-process, non-numeric text compares textually against str(bound);
        # the sqlite lowering must branch on storage class to reproduce that
        # (its native ordering puts every TEXT above every number).
        repro_expr = ReproDialect().case_when_threshold("v", bound, None)
        sqlite_expr = SqliteDialect().case_when_threshold("v", bound, None)
        assert_cells_agree(*run_both(repro_expr, sqlite_expr, values))


class TestPadProperties:
    pad_text = st.text(alphabet="ab-0 ", min_size=0, max_size=6)

    @settings(max_examples=100, deadline=None)
    @given(pad_text, st.integers(min_value=-3, max_value=12), pad_text)
    def test_spec(self, text, length, fill):
        for name, left in (("LPAD", True), ("RPAD", False)):
            out = SCALAR_FUNCTIONS[name](text, length, fill)
            want = max(length, 0)
            if len(text) >= want:
                assert out == text[:want]
            elif not fill:
                assert out == text
            else:
                assert len(out) == want
                body = out[want - len(text):] if left else out[: len(text)]
                pad = out[: want - len(text)] if left else out[len(text):]
                assert body == text
                cycle = (fill * (want // len(fill) + 1))[: want - len(text)]
                assert pad == cycle

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="abc1", max_size=8), st.integers(min_value=0, max_value=12))
    def test_space_lpad_matches_sqlite_printf(self, text, length):
        # With the default single-space pad, LPAD must match sqlite's
        # right-aligned printf — an independent reference implementation.
        if len(text) > length:
            return  # printf never truncates; that case is covered above
        conn = sqlite3.connect(":memory:")
        try:
            reference = conn.execute(
                "SELECT printf('%*s', ?, ?)", (length, text)
            ).fetchone()[0]
        finally:
            conn.close()
        assert SCALAR_FUNCTIONS["LPAD"](text, length, " ") == reference
