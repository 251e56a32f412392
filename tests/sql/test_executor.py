"""Tests for query execution against the in-memory catalog."""

import pytest

from repro.dataframe import Table
from repro.sql import Database
from repro.sql.errors import CatalogError, ExecutionError

from interpreter_oracle import engine


class TestProjection:
    def test_select_star(self, db):
        result = db.sql("SELECT * FROM people")
        assert result.num_rows == 5
        assert result.column_names == ["name", "age", "city", "score"]

    def test_comparison_item(self, db):
        result = db.sql("SELECT name, age > 28 AS older FROM people")
        assert result.column("older").values == [True, True, True, False, False]

    def test_expressions_and_alias(self, db):
        result = db.sql("SELECT name, CASE WHEN age > 40 THEN 82 ELSE 0 END AS doubled FROM people")
        assert result.to_dict()["doubled"] == [0, 82, 0, 0, 0]

    def test_case_when(self, db):
        result = db.sql(
            "SELECT CASE WHEN city = 'New York' THEN 'NY' ELSE city END AS c FROM people"
        )
        assert result.column("c").values.count("NY") == 3

    def test_case_with_operand_mapping(self, db):
        result = db.sql("SELECT CASE city WHEN 'LA' THEN 'west' ELSE 'east' END AS side FROM people")
        assert result.column("side").values.count("west") == 2

    def test_cast(self, db):
        result = db.sql("SELECT CAST(age AS DOUBLE) AS a FROM people")
        assert isinstance(result.cell(0, "a"), float)

    def test_null_comparison_takes_the_else_branch(self, db):
        values = db.column_values("SELECT CASE WHEN name = name THEN FALSE ELSE TRUE END AS p FROM people")
        assert values == [False, False, False, True, False]

    def test_in_list(self, db):
        values = db.column_values("SELECT city IN ('NY', 'LA') AS c FROM people")
        assert values == [True, False, True, True, True]

    def test_numeric_string_comparison_is_implicitly_cast(self):
        db = Database()
        db.register(Table.from_dict("t", {"v": ["5", "100", "7"]}))
        assert db.column_values("SELECT v > 10 AS p FROM t") == [False, True, False]


class TestRangeMixedTypes:
    """The range step's ``v < low OR v > high`` compares a mixed pair the
    way every comparison does, instead of leaking Python's ``TypeError``."""

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize(
        "value, low, high, outside",
        [
            ("5", "1", "'10'", False),
            ("'7'", "5", "10", False),
            ("7", "'5'", "'10'", False),
            ("11", "1", "'10'", True),
            ("'abc'", "1", "5", True),
            ("TRUE", "0", "'1'", False),
            ("NULL", "1", "'10'", None),
            ("5", "NULL", "'10'", None),
        ],
    )
    def test_mixed_operands(self, value, low, high, outside, compiled):
        sql = f"SELECT {value} < {low} OR {value} > {high}"
        with engine(compiled):
            assert Database().scalar(sql) is outside

    def test_matches_the_inclusive_comparisons(self):
        db = Database()
        inside = db.scalar("SELECT 7 >= '5'") and db.scalar("SELECT 7 <= '10'")
        assert db.scalar("SELECT 7 < '5' OR 7 > '10'") is (not inside)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_mixed_column_range_step(self, compiled):
        db = Database()
        db.register(Table.from_dict("t", {"v": [1, "3", "x", 7.5, None, True]}))
        with engine(compiled):
            values = db.column_values("SELECT CASE WHEN v < 1 OR v > '5' THEN NULL ELSE v END AS v FROM t")
        assert values == [1, "3", None, None, None, True]


class TestWindowFunctions:
    def test_qualify_keeps_first_per_partition(self, db):
        result = db.sql(
            "SELECT city FROM people QUALIFY ROW_NUMBER() OVER (PARTITION BY city ORDER BY age) = 1"
        )
        assert result.num_rows == 3


class TestDdlAndCatalog:
    def test_create_table_as_and_query(self, db):
        db.sql("CREATE OR REPLACE TABLE adults AS SELECT name, age >= 30 AS adult FROM people")
        assert db.has_table("adults")
        assert db.table("adults").column("adult").values.count(True) == 3

    def test_create_replaces_only_when_asked(self, db):
        db.sql("CREATE TABLE copy AS SELECT name FROM people")
        with pytest.raises(CatalogError):
            db.sql("CREATE TABLE copy AS SELECT age FROM people")
        db.sql("CREATE OR REPLACE TABLE copy AS SELECT age FROM people")
        assert db.table("copy").column_names == ["age"]

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.sql("SELECT * FROM nope")

    def test_unknown_column_raises(self, db):
        with pytest.raises(ExecutionError):
            db.sql("SELECT nope FROM people")

    def test_schema_reports_types(self, db):
        schema = db.schema("people")
        assert schema["age"].value == "INTEGER"

    def test_execute_script(self, db):
        result = db.execute_script(
            "-- a comment\nCREATE TABLE t2 AS SELECT name FROM people;\nSELECT name AS n FROM t2;"
        )
        assert result.column_names == ["n"] and result.num_rows == 5


@pytest.fixture
def orders():
    return Table.from_dict(
        "orders",
        {
            "order_id": [1, 2, 3, 4, 5, 6],
            "customer": ["ann", "bob", "ann", None, "eve", "dan"],
            "amount": [10, 25, 40, 5, 60, 15],
        },
    )


def _orders_db(orders):
    db = Database()
    db.register(orders)
    return db


class TestScanKeyHygiene:
    def test_single_table_scan_has_no_qualified_duplicates(self, orders):
        db = _orders_db(orders)
        columns, vectors, n = db.executor._scan("orders")
        assert columns == ["order_id", "customer", "amount"]
        assert len(vectors) == len(columns)
        assert n == 6
        assert db.sql("SELECT * FROM orders").column_names == columns

    def test_unknown_column_still_raises(self, orders):
        db = _orders_db(orders)
        with pytest.raises(ExecutionError):
            db.sql("SELECT missing FROM orders")


@pytest.mark.parametrize("compiled", [True, False])
class TestColumnEquality:
    """``=`` between two columns, on the compiled closures and under the
    interpreter oracle: the same coercions the cleaner's equality checks
    rely on."""

    @staticmethod
    def _equal(compiled, left, right):
        """``a = b`` per row: TRUE, FALSE or NULL."""
        db = Database()
        db.register(Table.from_dict("t", {"a": left, "b": right}))
        with engine(compiled):
            return db.column_values("SELECT a = b AS p FROM t")

    @classmethod
    def _matches(cls, compiled, left, right):
        return [i for i, p in enumerate(cls._equal(compiled, left, right)) if p is True]

    def test_numeric_string_coercion(self, compiled):
        # '=' implicitly casts number-vs-numeric-string.
        assert self._matches(compiled, [1, 2, 3, 4], ["1.0", "2", "x", "04"]) == [0, 1, 3]

    def test_string_string_stays_textual(self, compiled):
        # Two strings never compare numerically: '5' <> '5.0'.
        assert self._matches(compiled, ["5", "6"], ["5.0", "6"]) == [1]

    def test_boolean_matches_numbers_and_their_text_form(self, compiled):
        # A bool equals 1/0, '1.0'/'0' and its str() form 'True'/'False'.
        left = [True, True, True, True, True, False, False, False, False]
        right = ["True", 1, "1.0", "x", True, "False", 0, "0", "True"]
        assert self._matches(compiled, left, right) == [0, 1, 2, 4, 5, 6, 7]

    def test_null_never_matches(self, compiled):
        assert self._equal(compiled, [None, None, 1, 2], [None, 1, 1, None]) == [None, None, True, None]

