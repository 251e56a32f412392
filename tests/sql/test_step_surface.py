"""Every statement a plan step can render runs alike on the closures and the oracle.

The in-process engine exists to run what the cleaner renders, so this test
draws the dialect's whole output space rather than the registry's: a
:class:`~repro.core.plan.PlanStep` of every kind (value maps, NULL lists,
casts to each column type with and without a value mapping, numeric ranges,
FD repairs, deduplication, keep-first and keep-best uniqueness) over tables
whose column names need quoting and whose cells mix every storage type.
Each step is rendered with :class:`~repro.core.dialects.ReproDialect`,
must parse, and must produce the same table (or the same error) on the
compiled closures and under the interpreter oracle
(``interpreter_oracle.py``).
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import ROW_ID_COLUMN
from repro.core.dialects import ReproDialect, SqliteDialect
from repro.core.plan import PlanStep
from repro.dataframe.schema import ColumnType, is_null
from repro.dataframe.table import Table
from repro.sql.database import Database
from repro.sql.parser import parse
from repro.stream.state import TableLevelState, table_level_survivors

from interpreter_oracle import engine, interpreted

REPRO = ReproDialect()

NAMES = st.sampled_from(
    [
        "city", "zip_code", "select", "ORDER", "Group", "from", "case", "table",
        'a"b', "it's", "zip code", "\u00e9tat", "e\u0301tat", "Score", "value",
    ]
)
TOKENS = st.sampled_from(["", "a", "A", "N/A", "1", "1.0", "2.5", "-3", "1e3", " 7 ", "true", "no", "2020-01-02"])
CELLS = st.one_of(
    st.none(),
    st.just(math.nan),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, width=32),
    TOKENS,
    st.text(alphabet="a1.-' ", max_size=4),
)
TARGETS = st.one_of(st.none(), TOKENS, st.text(alphabet="b2'\"", max_size=3))
BOUNDS = st.one_of(
    st.none(),
    st.just(math.nan),
    st.just(math.inf),
    st.just(-math.inf),
    st.sampled_from([0, -1, 70, -2.5, 1e-5, -3.5e10, 4.058564076247631e-302, 1.5e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    columns = draw(st.lists(NAMES, min_size=2, max_size=4, unique_by=str.lower))
    n = draw(st.integers(0, 8))
    data = {ROW_ID_COLUMN: list(range(n))}
    for column in columns:
        data[column] = [draw(CELLS) for _ in range(n)]
    return Table.from_dict("src", data), columns


KINDS = ["value_map", "null_values", "cast", "range", "fd_map", "dedup", "unique"]


@st.composite
def steps(draw, kind, table, columns):
    column, other = draw(st.permutations(columns))[:2]
    # Keys and bounds are drawn from the column's own cells as well, so CASE
    # branches match and cells sit exactly on a bound.
    cells = table.column(column).values
    keys = st.one_of(TOKENS, st.sampled_from([str(v) for v in cells])) if cells else TOKENS
    numbers = [v for v in cells if isinstance(v, (int, float)) and not isinstance(v, bool)]
    bounds = st.one_of(BOUNDS, st.sampled_from(numbers)) if numbers else BOUNDS
    mappings = st.dictionaries(keys, TARGETS, max_size=4)
    if kind == "value_map":
        payload = {"column": column, "mapping": draw(mappings.filter(bool))}
    elif kind == "null_values":
        payload = {"column": column, "values": draw(st.lists(keys, min_size=1, max_size=4, unique=True))}
    elif kind == "cast":
        payload = {
            "column": column,
            "target_type": draw(st.sampled_from([t.value for t in ColumnType])),
            "mapping": draw(mappings),
        }
    elif kind == "range":
        payload = {"column": column, "low": draw(bounds), "high": draw(bounds)}
    elif kind == "fd_map":
        payload = {"determinant": column, "dependent": other, "mapping": draw(mappings.filter(bool))}
    elif kind == "dedup":
        payload = {"columns": draw(st.lists(st.sampled_from(columns), min_size=1, unique=True))}
    else:
        payload = {"column": column, "order_column": draw(st.sampled_from([None, other]))}
    return PlanStep(kind, "surface", column, "dst", payload)


def run(table, statement):
    db = Database()
    db.register(table)
    try:
        return ("table", db.sql(statement))
    except Exception as error:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(error), str(error))


def assert_identical(statement, compiled, reference):
    assert compiled[0] == reference[0], (statement, compiled, reference)
    if compiled[0] == "error":
        assert compiled[1:] == reference[1:], statement
        return
    left, right = compiled[1], reference[1]
    assert left.column_names == right.column_names, statement
    assert left.num_rows == right.num_rows, statement
    for col_c, col_r in zip(left.columns, right.columns):
        assert col_c.dtype == col_r.dtype, (statement, col_c.name)
        for row, (a, b) in enumerate(zip(col_c.values, col_r.values)):
            if is_null(a) and is_null(b):
                continue
            assert type(a) is type(b) and a == b, (statement, row, col_c.name, a, b)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_step_kind_runs_alike_on_both_engines(kind, data):
    table, columns = data.draw(tables())
    step = data.draw(steps(kind, table, columns))
    comments = data.draw(st.lists(st.text(max_size=20), max_size=2))
    statement = step.render("src", "dst", columns, comments, dialect=REPRO)
    parse(statement)
    compiled = run(table, statement)
    with interpreted() as oracle:
        reference = run(table, statement)
    assert_identical(statement, compiled, reference)
    # Every step statement evaluates an expression on each row it reads.
    assert (oracle.calls > 0) == (table.num_rows > 0), statement


# Keep-best uniqueness orders each key's rows by the order column, DESC, and
# keeps the first.  The order is one total order over storage classes, as
# SQL engines sort: numbers by value before text by code point (so a prefix
# sorts first), NULL and NaN last in both directions.  The stream fold keeps
# its winners by the same key.
KEEP_BEST_CASES = [
    # (order values of one key, row the step keeps)
    (["a", "ab"], 1),
    (["ab", "a"], 0),
    (["", "a"], 1),
    ([1, "x"], 1),
    (["x", 1], 0),
    ([10, "9"], 1),
    ([2.5, 3, True], 1),
    ([None, "a"], 1),
    ([math.nan, -1], 1),
    ([None, math.nan], 0),
    (["b", "b"], 0),
    (["é", "é", "z"], 0),
]


def _keep_best(order_values, compiled):
    n = len(order_values)
    table = Table.from_dict("src", {ROW_ID_COLUMN: list(range(n)), "k": ["k"] * n, "o": list(order_values)})
    step = PlanStep("unique", "surface", "k", "dst", {"column": "k", "order_column": "o"})
    with engine(compiled):
        kind, result = run(table, step.render("src", "dst", ["k", "o"], dialect=REPRO))[:2]
    assert kind == "table", result
    return step, table, result.column(ROW_ID_COLUMN).values


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("order_values, kept", KEEP_BEST_CASES)
def test_keep_best_desc_orders_text_prefixes_and_mixed_types(order_values, kept, compiled):
    step, table, kept_ids = _keep_best(order_values, compiled)
    assert kept_ids == [kept]
    rows = [(i, (k, o)) for i, k, o in zip(*(c.values for c in table.columns))]
    assert [row_id for row_id, _ in table_level_survivors([step], rows, ["k", "o"])] == [kept]
    state = TableLevelState([step], ["k", "o"])
    for row in rows:
        state.apply_batch([row])
    assert list(state.survivors) == [kept]


# Order values sqlite stores as they are in an untyped column: no affinity
# converts them, so both engines compare the same storage classes.  Values
# are distinct (1 and 1.0 count as equal), because SQL leaves the winner
# among equal order values unspecified.
SQLITE_ORDER_VALUES = st.lists(
    st.one_of(
        st.none(),
        st.integers(-(2**62), 2**62),
        st.floats(allow_nan=False, allow_infinity=True),
        st.text(alphabet="aAbz09 é中", max_size=4),
    ),
    max_size=10,
    unique_by=lambda v: ("n", float(v)) if isinstance(v, (int, float)) else ("t", v),
)


@settings(max_examples=150, deadline=None)
@given(order_values=SQLITE_ORDER_VALUES, keys=st.lists(st.sampled_from("ab"), min_size=10, max_size=10))
def test_keep_best_keeps_the_row_sqlite_keeps(order_values, keys):
    n = len(order_values)
    keys = keys[:n]
    step = PlanStep("unique", "surface", "k", "dst", {"column": "k", "order_column": "o"})
    table = Table.from_dict("src", {ROW_ID_COLUMN: list(range(n)), "k": keys, "o": order_values})
    kind, result = run(table, step.render("src", "dst", ["k", "o"], dialect=REPRO))[:2]
    assert kind == "table", result
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute(f'CREATE TABLE src ("{ROW_ID_COLUMN}", k, o)')
        connection.executemany("INSERT INTO src VALUES (?, ?, ?)", zip(range(n), keys, order_values))
        connection.executescript(step.render("src", "dst", ["k", "o"], dialect=SqliteDialect()))
        from_sqlite = sorted(row[0] for row in connection.execute(f'SELECT "{ROW_ID_COLUMN}" FROM dst'))
    finally:
        connection.close()
    assert result.column(ROW_ID_COLUMN).values == from_sqlite, order_values
