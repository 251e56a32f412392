"""Tests for the SQL tokenizer and parser."""

import pytest

from repro.dataframe.schema import ColumnType
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTableAs,
    DropTable,
    FunctionCall,
    Literal,
    Select,
    Star,
    WindowFunction,
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
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

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

    def test_function_call(self):
        expr = parse_expression("UPPER(name)")
        assert isinstance(expr, FunctionCall)
        assert expr.name == "UPPER"

    def test_window_function(self):
        expr = parse_expression("ROW_NUMBER() OVER (PARTITION BY a ORDER BY b DESC)")
        assert isinstance(expr, WindowFunction)
        assert len(expr.window.partition_by) == 1
        assert expr.window.order_by[0].descending is True

    def test_in_list_and_between(self):
        parse_expression("a IN (1, 2, 3)")
        parse_expression("a NOT IN ('x')")
        parse_expression("a BETWEEN 1 AND 10")

    def test_is_null(self):
        parse_expression("a IS NULL")
        parse_expression("a IS NOT NULL")

    def test_qualified_column(self):
        expr = parse_expression("t.col")
        assert isinstance(expr, ColumnRef)
        assert expr.table == "t"

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra stuff (")


class TestStatementParsing:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t WHERE a > 1 ORDER BY b LIMIT 5")
        assert isinstance(stmt, Select)
        assert stmt.limit == 5
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

    def test_select_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True

    def test_group_by_having(self):
        stmt = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_subquery_in_from(self):
        stmt = parse("SELECT x FROM (SELECT a AS x FROM t) sub")
        assert stmt.from_table.subquery is not None
        assert stmt.from_table.alias == "sub"

    @pytest.mark.parametrize("join", ["JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN"])
    def test_join_is_unsupported(self, join):
        with pytest.raises(ParseError, match="JOIN is not supported"):
            parse(f"SELECT * FROM a {join} b ON a.k = b.k")

    def test_join_after_subquery_is_unsupported(self):
        with pytest.raises(ParseError, match="JOIN"):
            parse("SELECT * FROM (SELECT k FROM a) s JOIN b ON s.k = b.k")

    def test_qualify(self):
        stmt = parse("SELECT * FROM t QUALIFY ROW_NUMBER() OVER (PARTITION BY a ORDER BY b) = 1")
        assert stmt.qualify is not None

    def test_create_table_as(self):
        stmt = parse("CREATE OR REPLACE TABLE t2 AS SELECT * FROM t")
        assert isinstance(stmt, CreateTableAs)
        assert stmt.or_replace is True
        assert stmt.name == "t2"

    def test_drop_table(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, DropTable)
        assert stmt.if_exists is True

    def test_unknown_statement_raises(self):
        with pytest.raises(ParseError):
            parse("UPDATE t SET a = 1")

    def test_trailing_tokens_raise(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 SELECT 2")
