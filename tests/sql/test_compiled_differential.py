"""Differential suite: compiled closures vs the reference interpreter.

Every query here runs twice over the same catalog and the same stage
pipeline — ``Executor(compiled=True)``, where expressions compile to
specialised closures, and ``Executor(compiled=False)``, where every
expression compiles to the closure that calls ``Executor._eval`` — and the
results must be cell-identical: same column names, same row order, and per
cell either both NULL (``is_null``, which also covers NaN) or equal with
the same type.  Errors must match too: same exception class, same message.

Two layers:

* a deterministic battery covering every expression node shape the compiler
  handles (plus the shapes that must raise, and the empty-table cases that
  must *not* raise);
* a hypothesis layer generating random SELECTs — filters, group-bys,
  windows, LIKE/ESCAPE, NaN and mixed-type columns — against randomly drawn
  tables.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.sql.catalog import Catalog
from repro.sql.compiler import ColumnarBinding
from repro.sql.errors import ExecutionError
from repro.sql.executor import Executor
from repro.sql.parser import parse, parse_expression


def make_catalog(tables):
    catalog = Catalog()
    for table in tables:
        catalog.register(table)
    return catalog


def mixed_table():
    return Table.from_dict(
        "t",
        {
            "k": [1, 2, 3, 4, 5, 6, 7, 8],
            "grp": ["a", "b", "a", None, "b", "a", "c", None],
            "val": [1.5, -2.0, float("nan"), 4.0, None, 1.5, 100.25, 0.0],
            "txt": ["5% off", "plain", None, "under_score", "PLAIN", "", "a%b", "x!y"],
            "mixed": [1, "1", 2.0, "two", None, True, "True", float("nan")],
        },
    )


def run_engine(catalog, sql, compiled):
    executor = Executor(catalog, compiled=compiled)
    try:
        result = executor.execute(parse(sql))
    except Exception as error:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(error), str(error))
    return ("table", result)


def assert_cell_identical(sql, compiled_result, interpreted_result):
    kind_c, kind_i = compiled_result[0], interpreted_result[0]
    assert kind_c == kind_i, (
        f"{sql!r}: compiled produced {compiled_result}, interpreter produced {interpreted_result}"
    )
    if kind_c == "error":
        assert compiled_result[1:] == interpreted_result[1:], (
            f"{sql!r}: error mismatch {compiled_result[1:]} vs {interpreted_result[1:]}"
        )
        return
    table_c, table_i = compiled_result[1], interpreted_result[1]
    assert table_c.column_names == table_i.column_names, sql
    assert table_c.num_rows == table_i.num_rows, sql
    for col_c, col_i in zip(table_c.columns, table_i.columns):
        for row, (a, b) in enumerate(zip(col_c.values, col_i.values)):
            if is_null(a) and is_null(b):
                continue
            assert type(a) is type(b) and a == b, (
                f"{sql!r}: cell ({row}, {col_c.name}) differs: {a!r} vs {b!r}"
            )


def check(catalog, sql):
    compiled_result = run_engine(catalog, sql, compiled=True)
    interpreted_result = run_engine(catalog, sql, compiled=False)
    assert_cell_identical(sql, compiled_result, interpreted_result)
    return compiled_result


DETERMINISTIC_QUERIES = [
    # scans and projection
    "SELECT * FROM t",
    "SELECT k, val FROM t",
    "SELECT k AS id, val * 2 AS doubled, -val AS neg FROM t",
    "SELECT k, k FROM t",  # duplicate output names get _1 suffixes
    "SELECT 'lit' AS tag, 42 AS n, k FROM t",
    # filters: comparison, 3VL AND/OR, arithmetic, division by zero
    "SELECT k FROM t WHERE val > 1",
    "SELECT k FROM t WHERE val >= 1.5 AND grp = 'a'",
    "SELECT k FROM t WHERE grp = 'a' OR val < 0",
    "SELECT k FROM t WHERE NOT (grp = 'a')",
    "SELECT k FROM t WHERE val + 1 > 2",
    "SELECT k, val / 0 AS dz, val % 0 AS mz FROM t",
    "SELECT k FROM t WHERE k % 2 = 0",
    "SELECT k, grp || '-' || txt AS joined FROM t",
    "SELECT k FROM t WHERE mixed = 1",
    "SELECT k FROM t WHERE mixed = 'True'",
    "SELECT k FROM t WHERE mixed <> 2",
    # IS NULL / IN / BETWEEN / CASE / CAST
    "SELECT k FROM t WHERE grp IS NULL",
    "SELECT k FROM t WHERE grp IS NOT NULL",
    "SELECT k FROM t WHERE grp IN ('a', 'c')",
    "SELECT k FROM t WHERE grp NOT IN ('a', 'c')",
    "SELECT k FROM t WHERE grp IN ('a', NULL)",
    "SELECT k FROM t WHERE k IN (1, 2, k + 1)",
    "SELECT k FROM t WHERE k BETWEEN 2 AND 5",
    "SELECT k FROM t WHERE k NOT BETWEEN 2 AND 5",
    # mixed-type BETWEEN compares like <= / >= instead of raising TypeError
    "SELECT k FROM t WHERE k BETWEEN 2 AND '5'",
    "SELECT k FROM t WHERE '3' BETWEEN k AND 10",
    "SELECT k, mixed BETWEEN 0 AND 'x' AS b, mixed NOT BETWEEN '1' AND 2 AS nb FROM t",
    "SELECT k, txt BETWEEN 1 AND 'z' AS b, val BETWEEN '0' AND grp AS vb FROM t",
    "SELECT k, CASE grp WHEN 'a' THEN 'first' WHEN 'b' THEN 'second' ELSE 'other' END AS label FROM t",
    "SELECT k, CASE grp WHEN 'a' THEN 1 END AS partial FROM t",
    "SELECT k, CASE WHEN val > 1 THEN 'big' WHEN val < 0 THEN 'neg' ELSE 'small' END AS bucket FROM t",
    "SELECT k, CASE grp WHEN txt THEN 'match' ELSE 'no' END AS dynamic FROM t",
    "SELECT k, CAST(k AS TEXT) AS s, CAST(val AS INTEGER) AS i FROM t",
    # LIKE through every route: Like node, escape, null pattern
    "SELECT k FROM t WHERE txt LIKE '%plain%'",
    "SELECT k FROM t WHERE txt LIKE '5!% %' ESCAPE '!'",
    "SELECT k FROM t WHERE txt LIKE 'under!_s%' ESCAPE '!'",
    "SELECT k, txt LIKE 'p%' AS starts_p FROM t",
    "SELECT k FROM t WHERE txt LIKE grp",
    # scalar functions
    "SELECT k, UPPER(txt) AS u, LENGTH(txt) AS n, COALESCE(grp, 'none') AS g FROM t",
    "SELECT k, SUBSTR(txt, 1, 3) AS head, REPLACE(txt, '%', 'pct') AS r FROM t",
    "SELECT k, ROUND(val, 1) AS r, ABS(val) AS a FROM t",
    # aggregates: global, grouped, HAVING, DISTINCT, expression-of-aggregates
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(val), SUM(val), MIN(val), MAX(val), AVG(val) FROM t",
    "SELECT COUNT(DISTINCT grp) FROM t",
    "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp",
    "SELECT grp, SUM(val) AS total, AVG(val) AS mean FROM t GROUP BY grp",
    "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING COUNT(*) > 1",
    "SELECT grp, SUM(val) - COUNT(*) AS adjusted FROM t GROUP BY grp",
    "SELECT grp, STRING_AGG(txt, '|') AS joined FROM t GROUP BY grp",
    "SELECT grp, val, COUNT(*) AS n FROM t GROUP BY grp, val",
    "SELECT UPPER(grp) AS g, COUNT(*) AS n FROM t GROUP BY UPPER(grp)",
    # windows and QUALIFY
    "SELECT k, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) AS rn FROM t",
    "SELECT k, RANK() OVER (ORDER BY val) AS r, DENSE_RANK() OVER (ORDER BY val) AS d FROM t",
    "SELECT k, SUM(val) OVER (PARTITION BY grp) AS group_total, COUNT(*) OVER () AS total FROM t",
    "SELECT k, grp FROM t QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) = 1",
    "SELECT k, ROW_NUMBER() OVER (ORDER BY val) AS rn FROM t "
    "QUALIFY ROW_NUMBER() OVER (ORDER BY val) <= 3 ORDER BY k",
    # DISTINCT / ORDER BY / LIMIT / OFFSET
    "SELECT DISTINCT grp FROM t",
    "SELECT DISTINCT grp, val FROM t ORDER BY grp",
    "SELECT k, val FROM t ORDER BY val DESC, k",
    "SELECT grp FROM t ORDER BY val",  # order by unprojected source column
    "SELECT k FROM t ORDER BY 1 DESC",
    "SELECT k FROM t ORDER BY k + 0",
    "SELECT DISTINCT grp FROM t ORDER BY grp DESC",
    "SELECT k FROM t ORDER BY val LIMIT 3",
    "SELECT k FROM t ORDER BY k LIMIT 3 OFFSET 2",
    "SELECT k FROM t LIMIT 2",
    "SELECT k FROM t OFFSET 6",
    # subqueries in FROM (inner SELECT is itself columnar-eligible)
    "SELECT id FROM (SELECT k AS id, val FROM t WHERE val > 0) sub WHERE id > 2",
    "SELECT grp, n FROM (SELECT grp, COUNT(*) AS n FROM t GROUP BY grp) counts ORDER BY n DESC, grp",
    # NaN ordering exercises the total order (NULL/NaN last)
    "SELECT val FROM t ORDER BY val DESC",
]

# Legacy error behaviours the interpreter has always had (TypeError on
# uncomparable sort keys, aggregates inside CASE conditions, QUALIFY over an
# output alias): the compiled engine must reproduce them exactly, whatever
# the class and message.
LEGACY_ERROR_PARITY_QUERIES = [
    "SELECT mixed FROM t ORDER BY mixed",
    "SELECT grp, CASE WHEN COUNT(*) > 2 THEN 'big' ELSE 'small' END AS size_label FROM t GROUP BY grp",
    "SELECT k, ROW_NUMBER() OVER (ORDER BY val) AS rn FROM t QUALIFY rn <= 3",
]

ERROR_QUERIES = [
    "SELECT nope FROM t",
    "SELECT t2.nope FROM t",
    "SELECT k FROM t WHERE nope = 1",
    "SELECT k FROM t ORDER BY nope",
    "SELECT k FROM t WHERE COUNT(k) > 1",
    "SELECT k FROM t WHERE txt LIKE 'x!' ESCAPE '!'",
    "SELECT k FROM t WHERE txt LIKE 'x' ESCAPE '!!'",
    "SELECT k FROM t ORDER BY ROW_NUMBER() OVER (ORDER BY k)",
]


@pytest.fixture(scope="module")
def catalog():
    return make_catalog([mixed_table()])


@pytest.mark.parametrize("sql", DETERMINISTIC_QUERIES)
def test_battery_matches_interpreter(catalog, sql):
    result = check(catalog, sql)
    assert result[0] == "table", f"battery query unexpectedly failed: {result}"


@pytest.mark.parametrize("sql", ERROR_QUERIES)
def test_error_parity(catalog, sql):
    result = check(catalog, sql)
    assert result[0] == "error", f"expected an error from {sql!r}"
    assert result[1] is ExecutionError


@pytest.mark.parametrize("sql", LEGACY_ERROR_PARITY_QUERIES)
def test_legacy_error_parity(catalog, sql):
    result = check(catalog, sql)
    assert result[0] == "error", f"expected an error from {sql!r}"


# The compiler specialises `<expr> <op> <literal>` comparisons
# (_compile_const_compare); this matrix drives every operand type the
# engine stores against every literal shape the specialisation dispatches
# on, for all six comparison operators.
CONST_COMPARE_VALUES = [
    None, float("nan"), float("inf"), float("-inf"),
    0, 1, -3, 2 ** 53, 2 ** 53 + 1,
    2.5, True, False,
    "", "a", "A", "7", "7.0", " 7 ", "nan", "inf", "0", "True",
]
CONST_COMPARE_LITERALS = [
    "'a'", "'7'", "'7.0'", "''", "'nan'", "' 7 '",
    "0", "7", "2.5", "-1", "9007199254740992",
]


@pytest.mark.parametrize("op", ["=", "<>", "<", ">", "<=", ">="])
def test_constant_comparison_matrix(op):
    matrix_catalog = make_catalog(
        [Table.from_dict("t", {"v": CONST_COMPARE_VALUES})]
    )
    for lit in CONST_COMPARE_LITERALS:
        result = check(matrix_catalog, f"SELECT v, v {op} {lit} AS r FROM t")
        assert result[0] == "table", (lit, result)


def test_compiled_false_yields_reference_closures(monkeypatch):
    expr = parse_expression("k + 1 > 2 AND grp LIKE 'a%'")

    def closure_name(executor):
        binding = ColumnarBinding(executor, ["k", "grp"], [[1, 2], ["a", "b"]])
        fn = binding.compile(expr)
        assert [fn(0), fn(1)] == [False, False]
        return fn.__name__

    assert closure_name(Executor(Catalog(), compiled=False)) == "fallback_fn"
    assert closure_name(Executor(Catalog(), compiled=True)) != "fallback_fn"
    monkeypatch.setenv("REPRO_SQL_COMPILED", "0")
    assert closure_name(Executor(Catalog())) == "fallback_fn"
    monkeypatch.setenv("REPRO_SQL_COMPILED", "1")
    assert closure_name(Executor(Catalog())) != "fallback_fn"
    monkeypatch.delenv("REPRO_SQL_COMPILED")
    assert Executor(Catalog()).compiled is True


@pytest.mark.parametrize(
    "sql, kind",
    [
        ("SELECT 1 + 1 AS two, 'x' || 'y' AS xy, 5 BETWEEN 1 AND '10' AS b", "table"),
        ("SELECT COUNT(*) AS n, MAX(3) AS m, SUM(NULL) AS s", "table"),
        ("SELECT nope", "error"),
    ],
)
def test_no_from_parity(catalog, sql, kind):
    result = check(catalog, sql)
    assert result[0] == kind
    if kind == "table":
        assert result[1].num_rows == 1
    else:
        assert result[1:] == (ExecutionError, "Unknown column 'nope'; available: []")


class TestEmptyTableParity:
    """Compile-once must not turn eval-time errors into plan-time errors."""

    @pytest.fixture(scope="class")
    def empty_catalog(self):
        return make_catalog(
            [Table.from_dict("e", {"a": [], "b": []})]
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT nope FROM e",                              # unknown column, zero rows
            "SELECT a FROM e WHERE nope = 1",
            "SELECT a FROM e WHERE b LIKE 'x!' ESCAPE '!'",    # malformed pattern, zero rows
            "SELECT a FROM e ORDER BY ROW_NUMBER() OVER (ORDER BY a)",
        ],
    )
    def test_would_raise_expressions_do_not_raise_on_empty(self, empty_catalog, sql):
        result = check(empty_catalog, sql)
        assert result[0] == "table"
        assert result[1].num_rows == 0

    def test_aggregates_over_empty_table(self, empty_catalog):
        check(empty_catalog, "SELECT COUNT(*), SUM(a), MIN(a) FROM e")
        check(empty_catalog, "SELECT a, COUNT(*) FROM e GROUP BY a")


# --------------------------------------------------------------------------
# hypothesis layer: random SELECTs over random tables
# --------------------------------------------------------------------------
GRP_VALUES = st.sampled_from(["a", "b", "c", "aa", "", None])
VAL_VALUES = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.integers(min_value=-5, max_value=10),
    st.floats(min_value=-5, max_value=10, allow_nan=False, allow_infinity=False),
)
TXT_VALUES = st.one_of(
    st.none(),
    st.text(alphabet="ab%_!X ", max_size=6),
)
MIXED_VALUES = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["1", "2.0", "x", "True"]),
)


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    return Table.from_dict(
        "t",
        {
            "k": list(range(n)),
            "grp": [draw(GRP_VALUES) for _ in range(n)],
            "val": [draw(VAL_VALUES) for _ in range(n)],
            "txt": [draw(TXT_VALUES) for _ in range(n)],
            "mixed": [draw(MIXED_VALUES) for _ in range(n)],
        },
    )


LITERALS = st.sampled_from(["0", "1", "2.5", "'a'", "'b'", "''", "'1'", "NULL"])
COLUMNS = st.sampled_from(["k", "grp", "val", "txt", "mixed"])
BETWEEN_HIGHS = st.sampled_from(["2", "5.5", "'3'", "'b'"])
LIKE_PATTERNS = st.sampled_from(
    ["'%a%'", "'a%'", "'%b'", "'_'", "'a!%%' ESCAPE '!'", "'!_%' ESCAPE '!'", "''"]
)


@st.composite
def predicates(draw, depth=0):
    column = draw(COLUMNS)
    kind = draw(
        st.sampled_from(
            ["cmp", "like", "null", "in", "between", "and", "or", "not"]
            if depth < 2
            else ["cmp", "like", "null", "in", "between"]
        )
    )
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", ">", "<=", ">="]))
        return f"{column} {op} {draw(LITERALS)}"
    if kind == "like":
        return f"{column} LIKE {draw(LIKE_PATTERNS)}"
    if kind == "null":
        return f"{column} IS {draw(st.sampled_from(['NULL', 'NOT NULL']))}"
    if kind == "in":
        items = ", ".join(draw(st.lists(LITERALS, min_size=1, max_size=3)))
        return f"{column} {draw(st.sampled_from(['IN', 'NOT IN']))} ({items})"
    if kind == "between":
        return f"{column} BETWEEN 0 AND {draw(BETWEEN_HIGHS)}"
    if kind == "not":
        return f"NOT ({draw(predicates(depth + 1))})"
    joiner = "AND" if kind == "and" else "OR"
    return f"({draw(predicates(depth + 1))} {joiner} {draw(predicates(depth + 1))})"


@st.composite
def select_queries(draw):
    shape = draw(st.sampled_from(["plain", "group", "window"]))
    where = f" WHERE {draw(predicates())}" if draw(st.booleans()) else ""
    if shape == "group":
        having = " HAVING COUNT(*) >= 1" if draw(st.booleans()) else ""
        order = " ORDER BY n DESC, grp" if draw(st.booleans()) else ""
        return (
            "SELECT grp, COUNT(*) AS n, SUM(val) AS total, MIN(txt) AS low "
            f"FROM t{where} GROUP BY grp{having}{order}"
        )
    if shape == "window":
        qualify = (
            " QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC, k) = 1"
            if draw(st.booleans())
            else ""
        )
        order = " ORDER BY k" if draw(st.booleans()) else ""
        return (
            "SELECT k, grp, RANK() OVER (PARTITION BY grp ORDER BY val) AS r "
            f"FROM t{where}{qualify}{order}"
        )
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    items = draw(
        st.sampled_from(
            [
                "*",
                "k, grp, val",
                "grp, val * 2 AS v2",
                "COALESCE(grp, 'none') AS g, txt",
                "CASE WHEN val > 0 THEN 'pos' ELSE 'rest' END AS sign, k",
            ]
        )
    )
    order = draw(st.sampled_from(["", " ORDER BY k", " ORDER BY val DESC, k", " ORDER BY 1"]))
    if distinct and order == " ORDER BY 1":
        order = ""
    limit = draw(st.sampled_from(["", " LIMIT 3", " LIMIT 5 OFFSET 2"]))
    return f"SELECT {distinct}{items} FROM t{where}{order}{limit}"


@settings(max_examples=120, deadline=None)
@given(table=tables(), sql=select_queries())
def test_random_selects_match_interpreter(table, sql):
    catalog = make_catalog([table])
    check(catalog, sql)


@settings(max_examples=60, deadline=None)
@given(table=tables(), predicate=predicates())
def test_random_predicates_match_interpreter(table, predicate):
    catalog = make_catalog([table])
    check(catalog, f"SELECT k FROM t WHERE {predicate}")
