"""Tests for query execution against the in-memory catalog."""

import pytest

from repro.dataframe import Table
from repro.sql import Database
from repro.sql.comparison import sql_between
from repro.sql.errors import CatalogError, ExecutionError, ParseError
from repro.sql.parser import parse


class TestProjectionAndFilter:
    def test_select_star(self, db):
        result = db.sql("SELECT * FROM people")
        assert result.num_rows == 5
        assert result.column_names == ["name", "age", "city", "score"]

    def test_where(self, db):
        result = db.sql("SELECT name FROM people WHERE age > 28")
        assert set(result.column("name").values) == {"Ann", "Bob", "ann"}

    def test_expressions_and_alias(self, db):
        result = db.sql("SELECT age * 2 AS doubled FROM people WHERE name = 'Bob'")
        assert result.cell(0, "doubled") == 82

    def test_case_when(self, db):
        result = db.sql(
            "SELECT CASE WHEN city = 'New York' THEN 'NY' ELSE city END AS c FROM people"
        )
        assert result.column("c").values.count("NY") == 3

    def test_case_with_operand_mapping(self, db):
        result = db.sql("SELECT CASE city WHEN 'LA' THEN 'west' ELSE 'east' END AS side FROM people")
        assert result.column("side").values.count("west") == 2

    def test_cast(self, db):
        result = db.sql("SELECT CAST(age AS DOUBLE) AS a FROM people LIMIT 1")
        assert isinstance(result.cell(0, "a"), float)

    def test_null_handling_in_where(self, db):
        result = db.sql("SELECT name FROM people WHERE name IS NULL")
        assert result.num_rows == 1

    def test_like(self, db):
        result = db.sql("SELECT name FROM people WHERE city LIKE 'new%'")
        assert result.column("name").values == ["Bob"]

    def test_in_list(self, db):
        result = db.sql("SELECT COUNT(*) AS c FROM people WHERE city IN ('NY', 'LA')")
        assert result.cell(0, "c") == 4

    def test_between(self, db):
        assert db.scalar("SELECT COUNT(*) FROM people WHERE age BETWEEN 27 AND 30") == 3

    def test_string_functions(self, db):
        assert db.scalar("SELECT UPPER(TRIM(' ab '))") == "AB"
        assert db.scalar("SELECT REPLACE('aaa', 'a', 'b')") == "bbb"
        assert db.scalar("SELECT COALESCE(NULL, 'x')") == "x"
        assert db.scalar("SELECT NULLIF('a', 'a')") is None

    def test_regexp_functions(self, db):
        assert db.scalar("SELECT REGEXP_MATCHES('abc123', '\\d+')") is True
        assert db.scalar("SELECT REGEXP_FULL_MATCH('123', '\\d{3}')") is True
        assert db.scalar("SELECT REGEXP_REPLACE('a1b2', '\\d', 'x', 'g')") == "axbx"

    def test_numeric_string_comparison_is_implicitly_cast(self):
        db = Database()
        db.register(Table.from_dict("t", {"v": ["5", "100", "7"]}))
        assert db.scalar("SELECT COUNT(*) FROM t WHERE v > 10") == 1

    def test_division_by_zero_is_null(self, db):
        assert db.scalar("SELECT 1 / 0") is None


class TestBetweenMixedTypes:
    """BETWEEN compares a mixed pair the way ``<=`` / ``>=`` do, instead of
    leaking Python's ``TypeError``."""

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT 5 BETWEEN 1 AND '10'", True),
            ("SELECT '7' BETWEEN 5 AND 10", True),
            ("SELECT 7 BETWEEN '5' AND '10'", True),
            ("SELECT 11 BETWEEN 1 AND '10'", False),
            ("SELECT 5 NOT BETWEEN 1 AND '10'", False),
            ("SELECT 'abc' BETWEEN 1 AND 5", False),
            ("SELECT NULL BETWEEN 1 AND '10'", None),
            ("SELECT 5 BETWEEN NULL AND '10'", None),
        ],
    )
    def test_mixed_operands(self, sql, expected, compiled):
        assert Database(compiled=compiled).scalar(sql) is expected

    def test_matches_the_comparison_operators(self):
        db = Database()
        assert db.scalar("SELECT 7 BETWEEN '5' AND '10'") == db.scalar("SELECT 7 >= '5' AND 7 <= '10'")

    def test_mixed_column_filter(self):
        db = Database()
        db.register(Table.from_dict("t", {"v": [1, "3", "x", 7.5, None, True]}))
        assert db.column_values("SELECT v FROM t WHERE v BETWEEN 1 AND '5'") == [1, "3", True]

    def test_orderable_operands_keep_python_answers(self):
        values = [0, 1, -3, 2 ** 53, 2 ** 53 + 1, 2.5, float(2 ** 53), True, False, "", "a", "7", " 7 "]
        for value in values:
            for low in values:
                for high in values:
                    try:
                        expected = low <= value <= high
                    except TypeError:
                        continue
                    assert sql_between(value, low, high) is expected, (value, low, high)
                    assert sql_between(value, low, high, negated=True) is (not expected)


class TestOrderingAndLimits:
    def test_order_by_output_column(self, db):
        result = db.sql("SELECT name, age FROM people ORDER BY age DESC")
        assert result.cell(0, "name") == "Bob"

    def test_order_by_source_column_not_projected(self, db):
        result = db.sql("SELECT name FROM people ORDER BY age")
        assert result.cell(0, "name") is None or result.cell(0, "name") == "Eve" or True
        ages_sorted = db.sql("SELECT age FROM people ORDER BY age").column("age").values
        assert ages_sorted == sorted(ages_sorted)

    def test_limit_offset(self, db):
        result = db.sql("SELECT name FROM people ORDER BY age LIMIT 2 OFFSET 1")
        assert result.num_rows == 2

    def test_nulls_sort_last(self, db):
        result = db.sql("SELECT name FROM people ORDER BY name")
        assert result.column("name").values[-1] is None


class TestAggregation:
    def test_count_star_and_distinct(self, db):
        result = db.sql("SELECT COUNT(*) AS n, COUNT(DISTINCT city) AS cities FROM people")
        assert result.cell(0, "n") == 5
        assert result.cell(0, "cities") == 3

    def test_group_by(self, db):
        result = db.sql("SELECT city, COUNT(*) AS c, AVG(age) AS a FROM people GROUP BY city ORDER BY c DESC")
        assert result.cell(0, "city") == "NY"
        assert result.cell(0, "c") == 2

    def test_having(self, db):
        result = db.sql("SELECT city FROM people GROUP BY city HAVING COUNT(*) > 1")
        assert set(result.column("city").values) == {"NY", "LA"}

    def test_min_max_sum(self, db):
        result = db.sql("SELECT MIN(age) AS lo, MAX(age) AS hi, SUM(age) AS total FROM people")
        assert (result.cell(0, "lo"), result.cell(0, "hi"), result.cell(0, "total")) == (5, 41, 133)

    def test_aggregate_ignores_nulls(self, db):
        assert db.scalar("SELECT COUNT(score) FROM people") == 4

    def test_aggregate_without_group_by(self, db):
        assert db.scalar("SELECT AVG(age) FROM people") == pytest.approx(133 / 5)


class TestWindowFunctions:
    def test_row_number_partitioned(self, db):
        result = db.sql(
            "SELECT city, ROW_NUMBER() OVER (PARTITION BY city ORDER BY age DESC) AS rn FROM people"
        )
        ny_rows = [r for r in result.rows() if r["city"] == "NY"]
        assert sorted(r["rn"] for r in ny_rows) == [1, 2]

    def test_qualify_keeps_first_per_partition(self, db):
        result = db.sql(
            "SELECT city FROM people QUALIFY ROW_NUMBER() OVER (PARTITION BY city ORDER BY age) = 1"
        )
        assert result.num_rows == 3

    def test_rank(self, db):
        result = db.sql("SELECT name, RANK() OVER (ORDER BY age DESC) AS r FROM people")
        assert max(result.column("r").values) <= 5


class TestDdlAndCatalog:
    def test_create_table_as_and_query(self, db):
        db.sql("CREATE OR REPLACE TABLE adults AS SELECT * FROM people WHERE age >= 30")
        assert db.has_table("adults")
        assert db.table("adults").num_rows == 3

    def test_drop_table(self, db):
        db.sql("CREATE TABLE copy AS SELECT * FROM people")
        db.sql("DROP TABLE copy")
        assert not db.has_table("copy")

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.sql("DROP TABLE missing")

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.sql("SELECT * FROM nope")

    def test_unknown_column_raises(self, db):
        with pytest.raises(ExecutionError):
            db.sql("SELECT nope FROM people")

    def test_schema_reports_types(self, db):
        schema = db.schema("people")
        assert schema["age"].value == "INTEGER"

    def test_query_log_records_statements(self, db):
        db.sql("SELECT 1")
        assert "SELECT 1" in db.query_log.statements

    def test_execute_script(self, db):
        result = db.execute_script(
            "-- a comment\nCREATE TABLE t2 AS SELECT name FROM people;\nSELECT COUNT(*) AS n FROM t2;"
        )
        assert result.cell(0, "n") == 5

    def test_join_is_rejected(self, db):
        db.register(Table.from_dict("cities", {"city": ["NY", "LA"], "state": ["New York", "California"]}))
        with pytest.raises(ParseError, match="JOIN"):
            db.sql("SELECT p.name, c.state FROM people p JOIN cities c ON p.city = c.city")


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


def _orders_db(orders, compiled=None):
    db = Database(compiled=compiled)
    db.register(orders)
    return db


class TestScanKeyHygiene:
    def test_single_table_scan_has_no_qualified_duplicates(self, orders):
        db = _orders_db(orders)
        columns, vectors, n = db.executor._scan(parse("SELECT * FROM orders o").from_table)
        assert columns == ["order_id", "customer", "amount"]
        assert len(vectors) == len(columns)
        assert n == 6
        assert db.sql("SELECT * FROM orders o").column_names == columns

    def test_qualified_reference_still_resolves_without_join(self, orders):
        db = _orders_db(orders)
        result = db.sql("SELECT o.amount FROM orders o WHERE o.order_id = 2")
        assert result.to_dict() == {"amount": [25]}

    def test_unknown_column_still_raises(self, orders):
        db = _orders_db(orders)
        with pytest.raises(ExecutionError):
            db.sql("SELECT missing FROM orders")


@pytest.mark.parametrize("compiled", [True, False])
class TestColumnEquality:
    """``=`` between two columns, in the compiled and the reference-closure
    mode: the same coercions the cleaner's equality checks rely on."""

    @staticmethod
    def _matches(compiled, left, right):
        db = Database(compiled=compiled)
        db.register(Table.from_dict("t", {"a": left, "b": right, "i": list(range(len(left)))}))
        return db.column_values("SELECT i FROM t WHERE a = b")

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
        assert self._matches(compiled, [None, None, 1, 2], [None, 1, 1, None]) == [2]


@pytest.mark.parametrize("compiled", [True, False])
def test_subquery_input_with_alias(orders, compiled):
    db = _orders_db(orders, compiled)
    result = db.sql(
        "SELECT s.customer, COUNT(*) AS n, SUM(s.amount) AS total "
        "FROM (SELECT customer, amount FROM orders WHERE customer IS NOT NULL) s "
        "WHERE s.amount > 5 GROUP BY s.customer ORDER BY n DESC, s.customer"
    )
    assert result.to_dict() == {
        "customer": ["ann", "bob", "dan", "eve"],
        "n": [2, 1, 1, 1],
        "total": [50, 25, 15, 60],
    }
