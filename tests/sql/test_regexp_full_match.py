"""``REGEXP_FULL_MATCH``, the one scalar function the engine keeps.

The pattern-count oracle filters on it, so its answers must be the same
on the compiled closures and under the interpreter oracle: the whole text must match (not a prefix or
a substring), a NULL argument yields NULL, a non-text value is matched
through its text form, and ``%``/``_`` are plain characters.
"""

import pytest

from repro.dataframe.table import Table
from repro.sql import Database
from repro.sql.errors import ExecutionError

from interpreter_oracle import engine

ENGINES = pytest.mark.parametrize("compiled", [True, False])


@ENGINES
@pytest.mark.parametrize(
    "value, pattern, expected",
    [
        ("'abc'", "'a.c'", True),
        ("'abc'", "'b'", False),
        ("'abc'", "'ab'", False),
        ("''", "''", True),
        ("''", "'.+'", False),
        ("'5% off'", "'5% off'", True),
        ("'a_c'", "'a_c'", True),
        ("'abc'", "'a_c'", False),
        ("'ABC'", "'abc'", False),
        ("'état'", "'\\w+'", True),
        ("12", "'\\d+'", True),
        ("2.0", "'2'", True),
        ("-2.5", "'-2\\.5'", True),
        ("TRUE", "'True'", True),
        ("NULL", "'.*'", None),
        ("'a'", "NULL", None),
    ],
)
def test_scalar_answers(value, pattern, expected, compiled):
    sql = f"SELECT REGEXP_FULL_MATCH({value}, {pattern})"
    with engine(compiled):
        assert Database().scalar(sql) is expected


@ENGINES
def test_malformed_pattern_raises_execution_error(compiled):
    with engine(compiled), pytest.raises(ExecutionError, match="REGEXP_FULL_MATCH"):
        Database().scalar("SELECT REGEXP_FULL_MATCH('a', '(')")


@ENGINES
def test_wrong_argument_count_raises_execution_error(compiled):
    with engine(compiled), pytest.raises(ExecutionError, match="REGEXP_FULL_MATCH"):
        Database().scalar("SELECT REGEXP_FULL_MATCH('a', 'a', 'a')")


@ENGINES
def test_null_rows_pass_neither_filter(compiled):
    db = Database()
    db.register(Table.from_dict("t", {"k": [1, 2, 3, 4], "v": ["ab", None, "12", 7]}))
    with engine(compiled):
        matched = db.column_values("SELECT k FROM t WHERE REGEXP_FULL_MATCH(v, '\\d+')")
        unmatched = db.column_values("SELECT k FROM t WHERE NOT REGEXP_FULL_MATCH(v, '\\d+')")
    assert (matched, unmatched) == ([3, 4], [1])
