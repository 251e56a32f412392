"""The expressions the cleaner renders answer as stdlib :mod:`sqlite3` does.

``ReproDialect`` renders comparisons, ``OR``, ``IN``, ``CASE``, ``CAST``,
literals and unary minus.  Each query here runs on the engine (the compiled
closures and the interpreter oracle) and on an in-memory sqlite3 database,
an independent SQL implementation, and the answers must be equal.  sqlite3
has no boolean type, so a boolean answer compares as 1 or 0.

One known difference is left out: the engine casts a numeric string
implicitly in a comparison with a number (``'10' = 10`` is TRUE, as in
DuckDB; sqlite3 answers 0).
"""

from __future__ import annotations

import sqlite3
from typing import Any, List, Optional

import pytest

from repro.dataframe.table import Table
from repro.sql import Database

from interpreter_oracle import engine

ENGINES = pytest.mark.parametrize("compiled", [True, False])

EXPRESSIONS = [
    # Comparisons, on numbers and on text.
    "1 = 1",
    "1 = 2",
    "1 <> 2",
    "1 != 1",
    "2 < 3",
    "3 <= 3",
    "4 > 5",
    "5 >= 5",
    "1 = 1.0",
    "1.5 > 1",
    "'a' < 'b'",
    "'abc' = 'ABC'",
    "'b' > 'abc'",
    "'' < 'a'",
    "'abc' < 5",
    "2 = TRUE",
    "(1 = 1) = TRUE",
    # NULL in a comparison yields NULL.
    "NULL = 1",
    "1 < NULL",
    "NULL = NULL",
    "NULL <> NULL",
    # OR is three-valued.
    "TRUE OR FALSE",
    "FALSE OR FALSE",
    "TRUE OR NULL",
    "NULL OR TRUE",
    "FALSE OR NULL",
    "NULL OR NULL",
    "1 = 2 OR 2 = 2",
    # IN.
    "1 IN (1, 2)",
    "3 IN (1, 2)",
    "'b' IN ('a', 'b')",
    "'c' IN ('a', 'b')",
    "1.0 IN (1)",
    "NULL IN (1)",
    "1 IN (1, NULL)",
    # No item matches and an item is NULL: the answer is NULL, folded or not.
    "2 IN (1, NULL)",
    "(2 IN (1, NULL)) OR FALSE",
    "2 IN (1, CAST(NULL AS INTEGER))",
    "1 IN (CAST(NULL AS INTEGER), 1)",
    # CASE, searched and simple; a NULL condition takes the ELSE branch.
    "CASE WHEN 1 = 1 THEN 'x' ELSE 'y' END",
    "CASE WHEN NULL THEN 'x' ELSE 'y' END",
    "CASE WHEN 1 = 2 THEN 'x' END",
    "CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' ELSE 'c' END",
    "CASE WHEN 1 IN (2, 3) OR 4 > 3 THEN 'hit' ELSE 'miss' END",
    "CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END",
    "CASE 3 WHEN 1 THEN 'a' END",
    "CASE NULL WHEN NULL THEN 'a' ELSE 'b' END",
    # CAST truncates toward zero.
    "CAST('12' AS INTEGER)",
    "CAST(12 AS VARCHAR)",
    "CAST('2.5' AS DOUBLE)",
    "CAST(3 AS DOUBLE)",
    "CAST(2.7 AS INTEGER)",
    "CAST(-2.7 AS INTEGER)",
    "CAST(1.5 AS VARCHAR)",
    "CAST(TRUE AS INTEGER)",
    "CAST(NULL AS INTEGER)",
    # Literals and unary minus.
    "'it''s'",
    "42",
    "1e2",
    "-1.5e0",
    "-(-3)",
    "TRUE",
    "NULL",
]

COLUMNS = {
    "k": [1, 2, 3, 4, 5, 6],
    "grp": ["a", "b", None, "a", "c", "b"],
    "val": [1.5, -2.0, 0.0, None, 7.0, 3.25],
}

COLUMN_EXPRESSIONS = [
    "val > 1",
    "val = NULL",
    "grp = 'a' OR val < 0",
    "grp = 'z' OR val > 0",
    "grp IN ('a', 'c')",
    "grp IN ('a', NULL)",
    "k IN (1.5, val)",
    "CASE WHEN val > 0 THEN 'pos' ELSE 'other' END",
    "CASE grp WHEN 'a' THEN 'A' ELSE grp END",
    "CAST(val AS INTEGER)",
    "-val",
]


def _sqlite_answers(query: str, columns: Optional[dict] = None) -> List[Any]:
    connection = sqlite3.connect(":memory:")
    try:
        if columns:
            names = list(columns)
            connection.execute(f"CREATE TABLE t ({', '.join(names)})")
            connection.executemany(
                f"INSERT INTO t VALUES ({', '.join('?' for _ in names)})",
                zip(*columns.values()),
            )
        return [row[0] for row in connection.execute(query).fetchall()]
    finally:
        connection.close()


def _as_sqlite(value: Any) -> Any:
    return int(value) if isinstance(value, bool) else value


def _same(engine_answers: List[Any], sqlite_answers: List[Any]) -> bool:
    converted = [_as_sqlite(v) for v in engine_answers]
    return converted == sqlite_answers and [type(v) for v in converted] == [type(v) for v in sqlite_answers]


@ENGINES
@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_scalar_matches_sqlite(expression, compiled):
    query = f"SELECT {expression}"
    with engine(compiled):
        answer = Database().scalar(query)
    expected = _sqlite_answers(query)
    assert _same([answer], expected), (answer, expected)


@ENGINES
@pytest.mark.parametrize("expression", COLUMN_EXPRESSIONS)
def test_column_item_matches_sqlite(expression, compiled):
    db = Database()
    db.register(Table.from_dict("t", COLUMNS))
    with engine(compiled):
        answers = db.column_values(f"SELECT {expression} AS p FROM t")
    expected = _sqlite_answers(f"SELECT {expression} AS p FROM t ORDER BY k", COLUMNS)
    assert _same(answers, expected), (answers, expected)
