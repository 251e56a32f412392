"""Projections share the columns they pass through, and only those.

A table the executor built holds, in every column, the dtype inferred from
its values.  A projection that passes such a column through unchanged puts
the same ``Column`` object in its output (or, under an alias, a column with
the same dtype); everything else — computed vectors, vectors a ``QUALIFY``
gathered, and every column of a table registered from outside — is built
and typed afresh.  The dtype invariant must hold on every emitted
table, on the compiled closures and under the interpreter oracle
(``interpreter_oracle.py``).
"""

from __future__ import annotations

import datetime as dt
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType, infer_storage_type
from repro.dataframe.table import Table
from repro.sql import Database

from interpreter_oracle import engine

MIXED = st.one_of(
    st.none(),
    st.just(math.nan),
    st.just(""),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.dates(dt.date(2020, 1, 1), dt.date(2020, 12, 31)),
    st.sampled_from(["1", "x", " 12"]),
)
BLANKS = st.sampled_from([None, math.nan, ""])
TYPED = {
    "i": st.integers(-3, 3),
    "f": st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    "b": st.booleans(),
    "d": st.dates(dt.date(2020, 1, 1), dt.date(2020, 12, 31)),
}


@st.composite
def tables(draw):
    """Column ``k`` numbers the rows; ``m`` mixes every type; the rest are typed with blanks."""
    n = draw(st.integers(0, 6))
    data = {"k": list(range(n)), "m": [draw(MIXED) for _ in range(n)]}
    for name, values in TYPED.items():
        data[name] = [draw(st.one_of(values, BLANKS)) for _ in range(n)]
    return Table.from_dict("t", data)


# (statement over {src}, output columns shared with {src} when it was emitted
# and no row was dropped, whether a QUALIFY may drop rows)
SHAPES = [
    ("SELECT * FROM {src}", {"k", "m", "i", "f", "b", "d"}, False),
    ("SELECT m FROM {src}", {"m"}, False),
    ("SELECT m AS x FROM {src}", set(), False),
    ("SELECT m AS x, m AS y, m FROM {src}", {"m"}, False),
    ("SELECT k, CASE WHEN i > 0 THEN 0 ELSE i END AS i, d FROM {src}", {"k", "d"}, False),
    ("SELECT k, m, k >= 0 AS p FROM {src}", {"k", "m"}, False),
    ("SELECT k, m, k < 3 OR m = 'x' AS p FROM {src}", {"k", "m"}, False),
    ("SELECT k, f FROM {src} QUALIFY ROW_NUMBER() OVER (PARTITION BY k ORDER BY k) = 1", {"k", "f"}, True),
    ("SELECT k, f FROM {src} QUALIFY ROW_NUMBER() OVER (PARTITION BY b ORDER BY k DESC) = 1", {"k", "f"}, True),
    ("SELECT * FROM {src} QUALIFY ROW_NUMBER() OVER (PARTITION BY m ORDER BY k) = 1", {"k", "m", "i", "f", "b", "d"}, True),
    ("SELECT *, m IN (1, 'x') AS p FROM {src}", {"k", "m", "i", "f", "b", "d"}, False),
    ("SELECT k, m, k IN (1, 3) AS p FROM {src} QUALIFY ROW_NUMBER() OVER (PARTITION BY k IN (1, 3) ORDER BY k) = 1", {"k", "m"}, True),
    ("SELECT \"k\", \"m\" AS \"m\" FROM {src}", {"k", "m"}, False),
    ("SELECT k, CASE m WHEN 1 THEN 'one' ELSE m END AS m, i FROM {src}", {"k", "i"}, False),
    ("SELECT k, CASE WHEN f IN (0.0, '') THEN NULL ELSE f END AS f, b FROM {src}", {"k", "b"}, False),
    ("SELECT k, CASE WHEN f < -1 OR f > 1 THEN NULL ELSE f END AS f FROM {src}", {"k"}, False),
    ("SELECT k, CAST(m AS VARCHAR) AS m, d FROM {src}", {"k", "d"}, False),
    ("SELECT -k AS k, i FROM {src}", {"i"}, False),
]


def _assert_inferred(table: Table) -> None:
    for column in table.columns:
        assert column.dtype == infer_storage_type(column.values), (table.name, column)


def _shared(result: Table, source: Table):
    return {c.name for c in result.columns if any(c is s for s in source.columns)}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "oracle"])
@pytest.mark.parametrize("sql, passthrough, filters", SHAPES)
@given(table=tables())
@settings(max_examples=40, deadline=None)
def test_projection_shares_only_unfiltered_passthrough(sql, passthrough, filters, compiled, table):
    with engine(compiled):
        _check_projection(sql, passthrough, filters, table)


def _check_projection(sql, passthrough, filters, table):
    db = Database()
    db.register(table)
    emitted = db.sql("CREATE TABLE e AS SELECT * FROM t")
    _assert_inferred(emitted)
    assert not _shared(emitted, table)

    from_outside = db.sql(sql.format(src="t"))
    _assert_inferred(from_outside)
    assert not _shared(from_outside, table)

    result = db.sql("CREATE TABLE r AS " + sql.format(src="e"))
    _assert_inferred(result)
    rows_kept = result.num_rows == emitted.num_rows
    expected = passthrough if rows_kept or not filters else set()
    assert _shared(result, emitted) == expected
    assert result == from_outside
    # Every emitted table, whatever its shape, passes its columns on.
    assert _shared(db.sql("SELECT * FROM r"), result) == set(result.column_names)


def test_declared_dtype_is_reinferred_on_first_projection():
    db = Database()
    db.register(Table("t", [Column("a", ["1", "2"], ColumnType.INTEGER)]))
    first = db.sql("CREATE TABLE u AS SELECT a FROM t")
    assert first.column("a").dtype is ColumnType.VARCHAR
    second = db.sql("SELECT a, a AS b FROM u")
    assert second.column("a") is first.column("a")
    assert second.column("b").dtype is ColumnType.VARCHAR


def test_a_renamed_emitted_table_counts_as_registered_from_outside():
    db = Database()
    db.register(Table.from_dict("t", {"a": [1, 2]}))
    emitted = db.sql("CREATE TABLE u AS SELECT * FROM t")
    db.register(emitted.rename("r"))
    result = db.sql("SELECT a FROM r")
    assert result.column("a") is not emitted.column("a")
    assert result.column("a").dtype is ColumnType.INTEGER


def test_shared_columns_survive_dropping_their_source():
    db = Database()
    db.register(Table.from_dict("t", {"a": [1, None, 3]}))
    db.sql("CREATE TABLE u AS SELECT * FROM t")
    v = db.sql("CREATE TABLE v AS SELECT a FROM u")
    db.sql("CREATE OR REPLACE TABLE u AS SELECT -a AS a FROM t")
    assert db.sql("SELECT a FROM v").column("a") is v.column("a")
    assert v.column("a").values == [1, None, 3]
