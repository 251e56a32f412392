"""Tests for the SQL tokenizer and parser."""

import pytest

from repro.dataframe.schema import ColumnType
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTableAs,
    InList,
    Literal,
    Select,
    Star,
)
from repro.sql.errors import ParseError
from repro.sql.parser import parse, parse_expression
from repro.sql.tokenizer import TokenType, tokenize


class TestTokenizer:
    def test_keywords_uppercased(self):
        tokens = tokenize("select * from t")
        assert tokens[0].value == "SELECT"
        assert tokens[0].type is TokenType.KEYWORD

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_quoted_identifier(self):
        tokens = tokenize('SELECT "Weird Name"')
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[1].value == "Weird Name"

    def test_doubled_quote_in_quoted_identifier(self):
        tokens = tokenize('SELECT "a""b", """" FROM "t"')
        identifiers = [t.value for t in tokens if t.type is TokenType.IDENTIFIER]
        assert identifiers == ['a"b', '"', "t"]

    def test_unterminated_quoted_identifier_raises(self):
        with pytest.raises(ParseError):
            tokenize('SELECT "a""b')

    def test_numbers(self):
        tokens = tokenize("SELECT 1, 2.5, 1e3")
        values = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert values == ["1", "2.5", "1e3"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- comment\n, 2 /* block */")
        numbers = [t for t in tokens if t.type is TokenType.NUMBER]
        assert len(numbers) == 2

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize("SELECT 'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @x")


class TestExpressionParsing:
    def test_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 OR c IN (3)")
        assert isinstance(expr, BinaryOp)
        assert expr.op == "OR"
        assert expr.left.op == "OR" and expr.left.right.op == "="
        assert isinstance(expr.right, InList)

    def test_case_when(self):
        expr = parse_expression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END")
        assert isinstance(expr, CaseWhen)
        assert len(expr.whens) == 1
        assert isinstance(expr.default, Literal)

    def test_case_with_operand(self):
        expr = parse_expression("CASE a WHEN 'old' THEN 'new' END")
        assert isinstance(expr, CaseWhen)
        assert isinstance(expr.operand, ColumnRef)

    def test_cast(self):
        expr = parse_expression("CAST(a AS INTEGER)")
        assert isinstance(expr, Cast)
        assert expr.target is ColumnType.INTEGER

    def test_window_function(self):
        stmt = parse("SELECT * FROM t QUALIFY ROW_NUMBER() OVER (PARTITION BY a ORDER BY b DESC) = 1")
        assert len(stmt.qualify.partition_by) == 1
        assert stmt.qualify.descending is True

    def test_in_list(self):
        assert parse_expression("a IN (1, 2, 3)").items == [Literal(1), Literal(2), Literal(3)]

    def test_negative_literal(self):
        expr = parse_expression("a < -2.5e-3")
        assert expr.right.op == "-"
        assert expr.right.operand == Literal(2.5e-3)

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_expression("a = 2 extra stuff (")


class TestStatementParsing:
    def test_simple_select(self):
        stmt = parse("SELECT a, b > 1 AS c FROM t")
        assert isinstance(stmt, Select)
        assert stmt.from_table == "t"
        assert len(stmt.items) == 2

    def test_doubled_quote_in_identifier_names_one_column(self):
        stmt = parse('SELECT "a""b" AS "x""y" FROM "t""u"')
        item = stmt.items[0]
        assert item.expression == ColumnRef('a"b')
        assert item.alias == 'x"y'
        assert parse_expression('"a""b" = 1').left == ColumnRef('a"b')

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expression, Star)

    def test_qualify(self):
        stmt = parse("SELECT * FROM t QUALIFY ROW_NUMBER() OVER (PARTITION BY a ORDER BY b) = 1")
        assert stmt.qualify is not None

    def test_create_table_as(self):
        stmt = parse("CREATE OR REPLACE TABLE t2 AS SELECT * FROM t")
        assert isinstance(stmt, CreateTableAs)
        assert stmt.or_replace is True
        assert stmt.name == "t2"

    def test_unknown_statement_raises(self):
        with pytest.raises(ParseError):
            parse("UPDATE t SET a = 1")

    def test_trailing_tokens_raise(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 SELECT 2")


REMOVED_FUNCTIONS = [
    "UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM", "LENGTH", "LEN", "SUBSTR", "SUBSTRING",
    "REPLACE", "CONCAT", "ABS", "ROUND", "FLOOR", "CEIL", "CEILING", "SQRT", "LN", "LOG",
    "POWER", "MOD", "REGEXP_MATCHES", "REGEXP_REPLACE", "REGEXP_EXTRACT", "COALESCE",
    "NULLIF", "IFNULL", "NVL", "REVERSE", "LPAD", "RPAD", "LEFT", "RIGHT", "CONTAINS",
    "STARTS_WITH", "ENDS_WITH", "TRY_CAST_DOUBLE", "TYPEOF",
]

# Each family of SQL the engine once ran and no cleaning statement renders,
# with the statements that spell it.
REMOVED_CONSTRUCTS = {
    "distinct": ["SELECT DISTINCT a FROM t", "SELECT ALL a FROM t"],
    "group_by": ["SELECT a FROM t GROUP BY a"],
    "having": ["SELECT COUNT(*) FROM t HAVING COUNT(*) > 1"],
    "order_by": ["SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC"],
    "limit_offset": ["SELECT a FROM t LIMIT 1", "SELECT a FROM t OFFSET 1", "SELECT a FROM t LIMIT 1 OFFSET 1"],
    "subquery": ["SELECT x FROM (SELECT a AS x FROM t)", "SELECT x FROM (SELECT a AS x FROM t) sub"],
    "table_alias": ["SELECT a FROM t u", "SELECT a FROM t AS u"],
    "qualified_column": ["SELECT t.a FROM t", "SELECT t.* FROM t"],
    "join": [
        f"SELECT * FROM a {join} b ON a.k = b.k"
        for join in ("JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN")
    ],
    "drop": ["DROP TABLE t", "DROP TABLE IF EXISTS t", "DROP VIEW v"],
    "view": ["CREATE VIEW v AS SELECT * FROM t", "CREATE OR REPLACE VIEW v AS SELECT * FROM t"],
    "like": [
        "SELECT a FROM t WHERE a LIKE 'x%'",
        "SELECT a FROM t WHERE a NOT LIKE 'x%'",
        "SELECT a FROM t WHERE a LIKE 'x!%' ESCAPE '!'",
    ],
    "between": ["SELECT a BETWEEN 1 AND 2", "SELECT a NOT BETWEEN 1 AND 2"],
    "is_null": ["SELECT a IS NULL", "SELECT a IS NOT NULL"],
    "arithmetic": [f"SELECT 2 {op} 1" for op in ("+", "-", "*", "/", "%", "||")] + ["SELECT +1"],
    "scalar_functions": [f"SELECT {name}(a) FROM t" for name in REMOVED_FUNCTIONS],
    "aggregates": [
        f"SELECT {call} FROM t"
        for call in (
            "COUNT(a)", "COUNT(DISTINCT a)", "SUM(a)", "AVG(a)", "MIN(a)", "MAX(a)", "STDDEV(a)",
            "STDDEV_SAMP(a)", "STRING_AGG(a, ',')", "GROUP_CONCAT(a)", "COUNT(*) + 1", "a, COUNT(*)",
        )
    ] + ["SELECT a FROM t WHERE COUNT(*) > 1"],
    "where": [
        "SELECT a FROM t WHERE a = 1",
        "SELECT a FROM t WHERE TRUE",
        "SELECT * FROM t WHERE a = 1 QUALIFY ROW_NUMBER() OVER (PARTITION BY a ORDER BY b) = 1",
        "CREATE TABLE u AS SELECT * FROM t WHERE a IN (1)",
    ],
    "count_star": ["SELECT COUNT(*) FROM t", "SELECT COUNT(*) AS n FROM t", "SELECT COUNT(*)"],
    "and": ["SELECT a = 1 AND b = 2 FROM t", "SELECT CASE WHEN a AND b THEN 1 END FROM t", "SELECT TRUE AND FALSE"],
    "not": ["SELECT NOT a FROM t", "SELECT NOT (a = 1) FROM t", "SELECT CASE WHEN NOT a THEN 1 END FROM t"],
    "not_in": ["SELECT a NOT IN (1, 2) FROM t", "SELECT CASE WHEN a NOT IN ('x') THEN 1 END FROM t"],
    "regexp_full_match": [
        "SELECT REGEXP_FULL_MATCH(a, 'x') FROM t",
        "SELECT regexp_full_match(a, 'x') AS m FROM t",
        "SELECT REGEXP_FULL_MATCH('123', '\\d+')",
    ],
    "windows": [
        "SELECT RANK() OVER (ORDER BY a) FROM t",
        "SELECT DENSE_RANK() OVER (ORDER BY a) FROM t",
        "SELECT SUM(a) OVER (PARTITION BY b) FROM t",
        "SELECT COUNT(*) OVER () FROM t",
        "SELECT ROW_NUMBER() OVER (PARTITION BY a ORDER BY b) FROM t",
        "SELECT * FROM t QUALIFY RANK() OVER (PARTITION BY a ORDER BY b) = 1",
    ],
}


@pytest.mark.parametrize("family", sorted(REMOVED_CONSTRUCTS))
def test_removed_construct_raises_parse_error(family):
    for sql in REMOVED_CONSTRUCTS[family]:
        with pytest.raises(ParseError):
            parse(sql)
