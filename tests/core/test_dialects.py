"""Dialect layer: repro byte-identity, sqlite lowerings, literal hardening."""

import math
import random
import sqlite3
import struct

import pytest

from repro.core.context import ROW_ID_COLUMN
from repro.core.dialects import DEFAULT_DIALECT, ReproDialect, SqliteDialect, _exact_real, comment_block
from repro.core.pipeline import CocoonCleaner
from repro.core.plan import extract_plan
from repro.dataframe.schema import ColumnType, coerce_value
from repro.dataframe.table import Table
from repro.sql.database import Database

REPRO = ReproDialect()


def sqlite_eval(expr: str, values):
    """Evaluate ``expr`` over a one-column sqlite table holding ``values``.

    The column is declared without a type, so bound values keep their
    storage class — exactly how the differential harness loads data.
    """
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (v)")
        conn.executemany("INSERT INTO t VALUES (?)", [(v,) for v in values])
        return [row[0] for row in conn.execute(f"SELECT {expr} FROM t")]
    finally:
        conn.close()


class TestRegistry:
    def test_default_dialect_is_repro(self):
        assert isinstance(DEFAULT_DIALECT, ReproDialect)


class TestReproByteIdentity:
    """The default dialect must render exactly what the emitters always did."""

    def test_quote_identifier_unchanged(self):
        assert REPRO.quote_identifier("city") == "city"
        assert REPRO.quote_identifier("select") == '"select"'
        assert REPRO.quote_identifier("My Col") == '"My Col"'

    def test_case_when_mapping_unchanged(self):
        sql = REPRO.case_when_mapping("city", {"NYC ": "NYC", "bad": ""})
        assert sql == (
            "CASE city\n"
            "        WHEN 'NYC ' THEN 'NYC'\n"
            "        WHEN 'bad' THEN NULL\n"
            "        ELSE city\n"
            "    END"
        )

    def test_case_when_threshold_unchanged_for_finite_bounds(self):
        assert REPRO.case_when_threshold("abv", 0.02, 0.12) == (
            "CASE WHEN abv < 0.02 OR abv > 0.12 THEN NULL ELSE abv END"
        )
        assert REPRO.case_when_threshold("abv", None, None) == (
            "CASE WHEN FALSE THEN NULL ELSE abv END"
        )

    def test_keep_first_statement_matches_legacy_operator_sql(self):
        # The exact string DuplicationOperator inlined before the refactor.
        comments = ["Duplication cleaning: remove 3 duplicated rows (keep the first occurrence)."]
        legacy = (
            f"{comment_block(comments)}\n"
            "CREATE OR REPLACE TABLE t_dedup AS\n"
            "SELECT *\nFROM t\n"
            f"QUALIFY ROW_NUMBER() OVER (PARTITION BY a, b ORDER BY {ROW_ID_COLUMN}) = 1"
        )
        assert REPRO.keep_first_statement("t", "t_dedup", ["a", "b"], ROW_ID_COLUMN, comments) == legacy

    def test_plan_emit_repro_replays_identically(self):
        table = Table.from_rows(
            "demo",
            ["city", "n"],
            [["NYC ", "1"], ["NYC", "2"], ["LA", "x"], ["NYC ", "1"]],
        )
        result = CocoonCleaner().clean(table)
        plan = extract_plan(result)
        db = Database()
        ids = list(range(table.num_rows))
        with_ids = Table.from_rows(
            plan.base_table,
            [ROW_ID_COLUMN] + table.column_names,
            [[i] + list(row) for i, row in zip(ids, zip(*(c.values for c in table.columns)))],
        )
        db.register(with_ids, replace=True)
        db.execute_script(plan.emit())
        replayed = db.table(plan.final_table()).drop([ROW_ID_COLUMN])
        assert replayed.column_names == result.cleaned_table.column_names
        for column in replayed.column_names:
            assert replayed.column(column).values == result.cleaned_table.column(column).values


class TestSqliteStatements:
    def test_create_table_prelude_drops_first(self):
        prelude = SqliteDialect().create_table_prelude("t1")
        assert prelude == 'DROP TABLE IF EXISTS "t1";\nCREATE TABLE "t1" AS'

    def test_identifiers_always_quoted(self):
        # 'index' passes the repro bare-word test but is a sqlite keyword.
        assert SqliteDialect().quote_identifier("index") == '"index"'
        assert REPRO.quote_identifier("index") == "index"

    def test_keep_first_lowers_qualify(self):
        sql = SqliteDialect().keep_first_statement(
            "s", "t", ["k"], ROW_ID_COLUMN, columns=["_cocoon_row_id", "k", "v"]
        )
        assert "QUALIFY" not in sql
        assert "ROW_NUMBER() OVER" in sql and '"_cocoon_rn" = 1' in sql
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("CREATE TABLE s (_cocoon_row_id, k, v)")
            conn.executemany(
                "INSERT INTO s VALUES (?, ?, ?)",
                [(0, "a", "x"), (1, "a", "y"), (2, "b", "z")],
            )
            conn.executescript(sql)
            rows = conn.execute('SELECT "_cocoon_row_id", "k", "v" FROM "t" ORDER BY 1').fetchall()
        finally:
            conn.close()
        assert rows == [(0, "a", "x"), (2, "b", "z")]

    def test_keep_first_requires_columns(self):
        with pytest.raises(ValueError, match="column list"):
            SqliteDialect().keep_first_statement("s", "t", ["k"], ROW_ID_COLUMN)


CAST_BATTERY = [
    "12", "+7", "-03", "007", "2.5", ".5", "12.", "-1.25", "abc", "", "  ",
    "12abc", "1.2.3", "+", ".", "true", "True", " YES ", "no", "F", "0", "1",
    0, 1, 3, -4, 2.7, -2.7, 0.5,
    "2020-05-03", "05/13/2020", "13/05/2020", "2020/05/03", "05-13-2020",
    "99/99/9999", "2020-13-01", "03/04/2021",
]


class TestSqliteCastParity:
    """The sqlite CAST lowering must agree with coerce_value cell-for-cell."""

    @pytest.mark.parametrize("target", ["INTEGER", "DOUBLE", "BOOLEAN", "DATE", "VARCHAR"])
    def test_battery(self, target):
        expr = SqliteDialect().cast_expression('"v"', target)
        got = sqlite_eval(expr, CAST_BATTERY)
        for value, from_sqlite in zip(CAST_BATTERY, got):
            expected = coerce_value(value, ColumnType(target if target != "VARCHAR" else "VARCHAR"))
            if isinstance(expected, bool):
                expected = int(expected)
            elif expected is not None and target == "DATE":
                expected = str(expected)
            assert from_sqlite == expected, (
                f"CAST({value!r} AS {target}): sqlite={from_sqlite!r} in-process={expected!r}"
            )

    def test_timestamp_battery(self):
        values = [
            "2020-05-03 10:11:12", "2020-05-03T10:11:12", "2020-05-03 10:11",
            "05/03/2020 10:11", "2020-05-03", "05/13/2020", "garbage", "",
        ]
        expr = SqliteDialect().cast_expression('"v"', "TIMESTAMP")
        got = sqlite_eval(expr, values)
        for value, from_sqlite in zip(values, got):
            expected = coerce_value(value, ColumnType.TIMESTAMP)
            expected = str(expected) if expected is not None else None
            assert from_sqlite == expected, f"{value!r}: {from_sqlite!r} != {expected!r}"

    def test_exponent_strings_are_a_documented_gap(self):
        # The in-process engine accepts '1e3'; the GLOB guards do not.  This
        # pins the documented limitation so a silent behaviour change shows up.
        expr = SqliteDialect().cast_expression('"v"', "DOUBLE")
        assert sqlite_eval(expr, ["1e3"]) == [None]
        assert coerce_value("1e3", ColumnType.DOUBLE) == 1000.0

    def test_cast_guards_reject_prefix_parses(self):
        # sqlite's native CAST would turn '12abc' into 12; ours must not.
        expr = SqliteDialect().cast_expression('"v"', "INTEGER")
        assert sqlite_eval(expr, ["12abc"]) == [None]


class TestSqliteExpressionParity:
    def test_mapping_matches_numeric_storage_textually(self):
        # In-process CASE matches str(subject); sqlite needs the TEXT cast.
        expr = SqliteDialect().case_when_mapping("v", {"120": "200"})
        assert sqlite_eval(expr, [120, "120", 121]) == ["200", "200", 121]

    def test_in_list_matches_both_storage_classes(self):
        expr = SqliteDialect().case_when_null("v", ["999"])
        assert sqlite_eval(expr, [999, "999", 998]) == [None, None, 998]
        # Numeric storage matches numeric tokens by value, like sql_equal.
        expr = SqliteDialect().case_when_null("v", ["0"])
        assert sqlite_eval(expr, [0.0, "0.0", "0"]) == [None, "0.0", None]

    def test_threshold_matches_in_process_semantics(self):
        # Numbers and numeric text compare numerically; other text compares
        # textually against str(bound), exactly like the in-process engine
        # ('abc' > '2.0' lexically, so it is nulled on both sides).
        values = [1.0, 3.0, 0.1, "1.5", "3.5", "abc", "", None]
        expr = SqliteDialect().case_when_threshold("v", 0.5, 2.0)
        assert sqlite_eval(expr, values) == [
            1.0, None, None, "1.5", None, None, None, None,
        ]
        db = Database()
        db.register(Table.from_rows("t", ["v"], [[v] for v in values]), replace=True)
        in_process = db.column_values(
            f"SELECT {REPRO.case_when_threshold('v', 0.5, 2.0)} FROM t"
        )
        assert in_process == [1.0, None, None, "1.5", None, None, None, None]


class TestSqliteExactBounds:
    """sqlite misreads some shortest round-trip spellings by an ulp, so
    non-integral threshold bounds render as exact power-of-two quotients."""

    def test_spellings(self):
        assert _exact_real(12.5) == "(25.0 / 2.0)"
        assert _exact_real(-0.75) == "(-3.0 / 4.0)"
        assert _exact_real(70) == "70"
        assert _exact_real(70.0) == "70.0"
        assert _exact_real(2.0 ** 60) == "(1.0 * 1152921504606846976.0)"

    def test_sqlite_reads_every_spelling_exactly(self):
        rng = random.Random(0)
        values = [4.058564076247631e-302, 5e-324, 2.2250738585072014e-308, 0.1, -12.5, 1.7976931348623157e308]
        while len(values) < 3000:
            value = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            if math.isfinite(value):
                values.append(value)
        conn = sqlite3.connect(":memory:")
        try:
            for value in values:
                assert conn.execute(f"SELECT {_exact_real(value)}").fetchone()[0] == value, value
        finally:
            conn.close()


class TestLiteralHardening:
    """Satellite: non-finite floats must never render as bare tokens."""

    def test_finite_literals_unchanged(self):
        assert REPRO.quote_literal(3) == "3"
        assert REPRO.quote_literal(2.5) == "2.5"
        assert REPRO.quote_literal(True) == "TRUE"
        assert REPRO.quote_literal(None) == "NULL"
        assert REPRO.quote_literal("it's") == "'it''s'"

    def test_nan_renders_null(self):
        assert REPRO.quote_literal(float("nan")) == "NULL"

    def test_infinities_render_as_strings(self):
        assert REPRO.quote_literal(float("inf")) == "'inf'"
        assert REPRO.quote_literal(float("-inf")) == "'-inf'"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1.5, None, True, "x"])
    def test_round_trip_through_both_engines(self, value):
        literal = REPRO.quote_literal(value)
        db = Database()
        db.register(Table.from_rows("one", ["a"], [[1]]), replace=True)
        in_process = db.scalar(f"SELECT {literal} FROM one")
        from_sqlite = sqlite_eval(literal, [1])[0]
        if value is None or (isinstance(value, float) and math.isnan(value)):
            assert in_process is None and from_sqlite is None
        elif isinstance(value, bool):
            assert bool(in_process) is value and bool(from_sqlite) is value
        elif isinstance(value, float) and math.isinf(value):
            assert in_process == ("inf" if value > 0 else "-inf") == from_sqlite
        else:
            assert in_process == value and from_sqlite == value

    def test_threshold_drops_non_finite_bounds(self):
        # Previously rendered "abv < nan" — unparseable on every engine.
        sql = REPRO.case_when_threshold("abv", float("nan"), float("inf"))
        assert sql == "CASE WHEN FALSE THEN NULL ELSE abv END"
        sql = REPRO.case_when_threshold("abv", float("-inf"), 0.12)
        assert sql == "CASE WHEN abv > 0.12 THEN NULL ELSE abv END"

    def test_cast_expression_repro_unchanged(self):
        assert REPRO.cast_column("n", "INTEGER") == "CAST(n AS INTEGER)"


class TestDialectBaseIsAbstractEnough:
    def test_subclass_only_overrides(self):
        # Guard the extension contract documented in docs/dialects.md: a new
        # dialect only needs the hooks, not a rewrite of the builders.
        class Upper(ReproDialect):
            name = "upper"

            def create_table_prelude(self, target_table):
                return f"CREATE TABLE {self.quote_identifier(target_table)} AS"

        sql = Upper().select_with_replacements("s", "t", ["a"], {})
        assert sql.startswith("CREATE TABLE t AS")
