"""Recursive-descent parser producing :mod:`repro.sql.ast_nodes` trees.

The module's entry points are :func:`parse` (one full statement — ``SELECT``,
``CREATE [OR REPLACE] TABLE/VIEW … AS``, ``DROP TABLE/VIEW``) and
:func:`parse_expression` (a standalone scalar expression, as used by tests
and the SQL generator).  Both raise :class:`~repro.sql.errors.ParseError`
with the offending position on malformed input.  Parsing is side-effect
free: the returned AST references no catalog, so one parse can be executed
against any :class:`~repro.sql.database.Database`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dataframe.schema import parse_type
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTableAs,
    DropTable,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    Statement,
    TableRef,
    UnaryOp,
    WindowFunction,
    WindowSpec,
)
from repro.sql.errors import ParseError
from repro.sql.tokenizer import Token, TokenType, tokenize


def parse(sql: str) -> Statement:
    """Parse a single SQL statement into its AST.

    Accepts an optional trailing ``;`` but exactly one statement — use
    :meth:`repro.sql.database.Database.execute_script` for ``;``-separated
    scripts.  Raises :class:`~repro.sql.errors.ParseError` on malformed or
    trailing input.
    """
    return Parser(sql).parse_statement()


def parse_expression(sql: str) -> Expression:
    """Parse a standalone scalar expression (used by tests and the SQL generator).

    The expression grammar is the same one ``SELECT`` items and ``WHERE``
    clauses use: operators with SQL precedence, ``CASE``/``CAST``/function
    calls, ``IN``/``BETWEEN``/``IS NULL``/``LIKE``.
    """
    return Parser(sql).parse_standalone_expression()


class Parser:
    """A hand-written recursive-descent parser for the supported SQL subset."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens: List[Token] = tokenize(sql)
        self.pos = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _check_keyword(self, *names: str) -> bool:
        return self._peek().is_keyword(*names)

    def _match_keyword(self, *names: str) -> bool:
        if self._check_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise ParseError(f"Expected {name}, found {token.value!r}", token.position, self.sql)
        return self._advance()

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        token = self._peek()
        if token.type is not TokenType.PUNCT or token.value != value:
            raise ParseError(f"Expected {value!r}, found {token.value!r}", token.position, self.sql)
        return self._advance()

    def _match_operator(self, *values: str) -> Optional[str]:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in values:
            self._advance()
            return token.value
        return None

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        # Allow non-reserved keywords to be used as identifiers where sensible.
        if token.type is TokenType.KEYWORD and token.value in ("TABLE", "VIEW", "ROWS"):
            self._advance()
            return token.value.lower()
        raise ParseError(f"Expected identifier, found {token.value!r}", token.position, self.sql)

    # -- statements -----------------------------------------------------------
    def parse_statement(self) -> Statement:
        statement = self._parse_statement_inner()
        self._match_punct(";")
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(f"Unexpected trailing input: {token.value!r}", token.position, self.sql)
        return statement

    def _parse_statement_inner(self) -> Statement:
        if self._check_keyword("SELECT"):
            return self._parse_select()
        if self._check_keyword("CREATE"):
            return self._parse_create()
        if self._check_keyword("DROP"):
            return self._parse_drop()
        token = self._peek()
        raise ParseError(f"Expected a statement, found {token.value!r}", token.position, self.sql)

    def parse_standalone_expression(self) -> Expression:
        expr = self._parse_expression()
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(f"Unexpected trailing input: {token.value!r}", token.position, self.sql)
        return expr

    def _parse_create(self) -> CreateTableAs:
        self._expect_keyword("CREATE")
        or_replace = False
        if self._match_keyword("OR"):
            self._expect_keyword("REPLACE")
            or_replace = True
        is_view = False
        if self._match_keyword("VIEW"):
            is_view = True
        else:
            self._expect_keyword("TABLE")
        name = self._expect_identifier()
        self._expect_keyword("AS")
        query = self._parse_select()
        return CreateTableAs(name=name, query=query, or_replace=or_replace, is_view=is_view)

    def _parse_drop(self) -> DropTable:
        self._expect_keyword("DROP")
        if not self._match_keyword("TABLE"):
            self._expect_keyword("VIEW")
        if_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        name = self._expect_identifier()
        return DropTable(name=name, if_exists=if_exists)

    # -- SELECT ----------------------------------------------------------------
    def _parse_select(self) -> Select:
        self._expect_keyword("SELECT")
        distinct = False
        if self._match_keyword("DISTINCT"):
            distinct = True
        elif self._match_keyword("ALL"):
            pass
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())
        from_table: Optional[TableRef] = None
        where = None
        group_by: List[Expression] = []
        having = None
        qualify = None
        order_by: List[OrderItem] = []
        limit = None
        offset = None
        if self._match_keyword("FROM"):
            from_table = self._parse_table_ref()
            if self._check_keyword("JOIN", "INNER", "LEFT"):
                token = self._peek()
                raise ParseError(
                    "JOIN is not supported: a query reads one table or subquery",
                    token.position,
                    self.sql,
                )
        if self._match_keyword("WHERE"):
            where = self._parse_expression()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._match_punct(","):
                group_by.append(self._parse_expression())
        if self._match_keyword("HAVING"):
            having = self._parse_expression()
        if self._match_keyword("QUALIFY"):
            qualify = self._parse_expression()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._match_punct(","):
                order_by.append(self._parse_order_item())
        if self._match_keyword("LIMIT"):
            limit = self._parse_integer()
        if self._match_keyword("OFFSET"):
            offset = self._parse_integer()
        return Select(
            items=items,
            from_table=from_table,
            where=where,
            group_by=group_by,
            having=having,
            qualify=qualify,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_integer(self) -> int:
        token = self._peek()
        if token.type is not TokenType.NUMBER:
            raise ParseError(f"Expected integer, found {token.value!r}", token.position, self.sql)
        self._advance()
        return int(float(token.value))

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return SelectItem(Star())
        expr = self._parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier()
        return SelectItem(expr, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expression()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        elif self._match_keyword("ASC"):
            pass
        return OrderItem(expr, descending)

    def _parse_table_ref(self) -> TableRef:
        if self._match_punct("("):
            query = self._parse_select()
            self._expect_punct(")")
            alias = None
            if self._match_keyword("AS"):
                alias = self._expect_identifier()
            elif self._peek().type is TokenType.IDENTIFIER:
                alias = self._expect_identifier()
            return TableRef(subquery=query, alias=alias)
        name = self._expect_identifier()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier()
        return TableRef(name=name, alias=alias)

    # -- expressions (precedence climbing) ---------------------------------------
    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        while True:
            op = self._match_operator("=", "<>", "!=", "<", ">", "<=", ">=")
            if op is not None:
                op = "<>" if op == "!=" else op
                left = BinaryOp(op, left, self._parse_additive())
                continue
            if self._check_keyword("IS"):
                self._advance()
                negated = bool(self._match_keyword("NOT"))
                self._expect_keyword("NULL")
                left = IsNull(left, negated)
                continue
            if self._check_keyword("NOT") and self._peek(1).is_keyword("IN", "LIKE", "BETWEEN"):
                self._advance()
                left = self._parse_in_like_between(left, negated=True)
                continue
            if self._check_keyword("IN", "LIKE", "BETWEEN"):
                left = self._parse_in_like_between(left, negated=False)
                continue
            return left

    def _parse_in_like_between(self, left: Expression, negated: bool) -> Expression:
        if self._match_keyword("IN"):
            self._expect_punct("(")
            items = [self._parse_expression()]
            while self._match_punct(","):
                items.append(self._parse_expression())
            self._expect_punct(")")
            return InList(left, items, negated)
        if self._match_keyword("LIKE"):
            right = self._parse_additive()
            escape = None
            if self._match_keyword("ESCAPE"):
                escape = self._parse_additive()
            expr: Expression = Like(left, right, escape)
            return UnaryOp("NOT", expr) if negated else expr
        self._expect_keyword("BETWEEN")
        low = self._parse_additive()
        self._expect_keyword("AND")
        high = self._parse_additive()
        return Between(left, low, high, negated)

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            op = self._match_operator("+", "-", "||")
            if op is None:
                return left
            left = BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            op = self._match_operator("*", "/", "%")
            if op is None:
                return left
            left = BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> Expression:
        op = self._match_operator("-", "+")
        if op is not None:
            return UnaryOp(op, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if "." in text or "e" in text.lower():
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENTIFIER or token.is_keyword("LEFT", "REPLACE"):
            # LEFT and REPLACE are both keywords and scalar function names.
            return self._parse_identifier_expression()
        raise ParseError(f"Unexpected token {token.value!r} in expression", token.position, self.sql)

    def _parse_case(self) -> CaseWhen:
        self._expect_keyword("CASE")
        operand = None
        if not self._check_keyword("WHEN"):
            operand = self._parse_expression()
        whens = []
        while self._match_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            result = self._parse_expression()
            whens.append((condition, result))
        default = None
        if self._match_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        if not whens:
            raise ParseError("CASE requires at least one WHEN clause", self._peek().position, self.sql)
        return CaseWhen(whens=whens, default=default, operand=operand)

    def _parse_cast(self) -> Cast:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        operand = self._parse_expression()
        self._expect_keyword("AS")
        type_name = self._expect_identifier() if self._peek().type is TokenType.IDENTIFIER else self._advance().value
        # Allow parameterised types such as VARCHAR(20).
        if self._match_punct("("):
            while not self._match_punct(")"):
                self._advance()
        self._expect_punct(")")
        return Cast(operand, parse_type(type_name))

    def _parse_identifier_expression(self) -> Expression:
        token = self._advance()
        name = token.value
        if self._peek().type is TokenType.PUNCT and self._peek().value == "(":
            return self._parse_function_call(name)
        if self._match_punct("."):
            nxt = self._peek()
            if nxt.type is TokenType.OPERATOR and nxt.value == "*":
                self._advance()
                return Star(table=name)
            column = self._expect_identifier()
            return ColumnRef(column, table=name)
        return ColumnRef(name)

    def _parse_function_call(self, name: str) -> Expression:
        self._expect_punct("(")
        distinct = bool(self._match_keyword("DISTINCT"))
        args: List[Expression] = []
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            args.append(Star())
        elif not (token.type is TokenType.PUNCT and token.value == ")"):
            args.append(self._parse_expression())
            while self._match_punct(","):
                args.append(self._parse_expression())
        self._expect_punct(")")
        if self._match_keyword("OVER"):
            self._expect_punct("(")
            window = WindowSpec()
            if self._match_keyword("PARTITION"):
                self._expect_keyword("BY")
                window.partition_by.append(self._parse_expression())
                while self._match_punct(","):
                    window.partition_by.append(self._parse_expression())
            if self._match_keyword("ORDER"):
                self._expect_keyword("BY")
                window.order_by.append(self._parse_order_item())
                while self._match_punct(","):
                    window.order_by.append(self._parse_order_item())
            self._expect_punct(")")
            return WindowFunction(name.upper(), args, window)
        return FunctionCall(name.upper(), args, distinct)
