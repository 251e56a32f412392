"""Recursive-descent parser producing :mod:`repro.sql.ast_nodes` trees.

The grammar is what the cleaner renders::

    statement  := [CREATE [OR REPLACE] TABLE name AS] select [;]
    select     := SELECT item {, item} [FROM name]
                  [QUALIFY ROW_NUMBER() OVER (PARTITION BY expr {, expr}
                                              ORDER BY expr [DESC]) = 1]
    item       := * | expr [AS name]
    expr       := OR over comparisons (= <> != < > <= >=) and IN (…),
                  unary minus, literals, column names, CASE and
                  CAST(expr AS type)

Anything else (another statement, clause, operator or function) raises
:class:`~repro.sql.errors.ParseError` with the offending position.  The
module's entry points are :func:`parse` (one full statement) and
:func:`parse_expression` (a standalone scalar expression, as used by tests).
Parsing is side-effect free: the returned AST references no catalog, so one
parse can be executed against any :class:`~repro.sql.database.Database`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dataframe.schema import parse_type
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTableAs,
    Expression,
    FirstPerPartition,
    InList,
    Literal,
    Select,
    SelectItem,
    Star,
    Statement,
    UnaryOp,
)
from repro.sql.errors import ParseError
from repro.sql.tokenizer import Token, TokenType, tokenize


#: Tokens that are a whole primary expression on their own (``(`` never
#: ends an expression, so ``name(`` takes the full climb and fails there).
_LONE_TYPES = frozenset({TokenType.NUMBER, TokenType.STRING, TokenType.IDENTIFIER})
_LONE_KEYWORDS = frozenset({"NULL", "TRUE", "FALSE"})
#: Tokens after which no operator level continues an expression.
_ENDS_PUNCT = frozenset({",", ")"})
_ENDS_KEYWORDS = frozenset({"THEN", "WHEN", "ELSE", "END", "FROM", "AS"})


def parse(sql: str) -> Statement:
    """Parse a single SQL statement into its AST.

    Accepts an optional trailing ``;`` but exactly one statement — use
    :meth:`repro.sql.database.Database.execute_script` for ``;``-separated
    scripts.  Raises :class:`~repro.sql.errors.ParseError` on malformed or
    trailing input.
    """
    return Parser(sql).parse_statement()


def parse_expression(sql: str) -> Expression:
    """Parse a standalone scalar expression (the grammar of select items)."""
    return Parser(sql).parse_standalone_expression()


class Parser:
    """A hand-written recursive-descent parser for the supported SQL subset."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens: List[Token] = tokenize(sql)
        self.pos = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        # ``pos`` never passes the EOF token that ends the list.
        if not offset:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

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

    def _expect_operator(self, value: str) -> Token:
        token = self._peek()
        if token.type is not TokenType.OPERATOR or token.value != value:
            raise ParseError(f"Expected {value!r}, found {token.value!r}", token.position, self.sql)
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"Expected identifier, found {token.value!r}", token.position, self.sql)
        return self._advance().value

    def _match_call(self, name: str) -> bool:
        """Consume ``name(`` when the next two tokens spell it."""
        token = self._peek()
        following = self._peek(1)
        if (
            token.type is TokenType.IDENTIFIER
            and token.value.upper() == name
            and following.type is TokenType.PUNCT
            and following.value == "("
        ):
            self.pos += 2
            return True
        return False

    # -- statements -----------------------------------------------------------
    def parse_statement(self) -> Statement:
        if self._check_keyword("CREATE"):
            statement: Statement = self._parse_create()
        else:
            statement = self._parse_select()
        self._match_punct(";")
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(f"Unexpected trailing input: {token.value!r}", token.position, self.sql)
        return statement

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
        self._expect_keyword("TABLE")
        name = self._expect_identifier()
        self._expect_keyword("AS")
        query = self._parse_select()
        return CreateTableAs(name=name, query=query, or_replace=or_replace)

    # -- SELECT ----------------------------------------------------------------
    def _parse_select(self) -> Select:
        self._expect_keyword("SELECT")
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())
        select = Select(items=items)
        if self._match_keyword("FROM"):
            select.from_table = self._expect_identifier()
        if self._match_keyword("QUALIFY"):
            select.qualify = self._parse_first_per_partition()
        return select

    def _parse_select_item(self) -> SelectItem:
        if self._match_operator("*"):
            return SelectItem(Star())
        expr = self._parse_expression()
        alias = self._expect_identifier() if self._match_keyword("AS") else None
        return SelectItem(expr, alias)

    def _parse_first_per_partition(self) -> FirstPerPartition:
        if not self._match_call("ROW_NUMBER"):
            token = self._peek()
            raise ParseError(f"Expected ROW_NUMBER(), found {token.value!r}", token.position, self.sql)
        self._expect_punct(")")
        self._expect_keyword("OVER")
        self._expect_punct("(")
        self._expect_keyword("PARTITION")
        self._expect_keyword("BY")
        partition_by = [self._parse_expression()]
        while self._match_punct(","):
            partition_by.append(self._parse_expression())
        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        order_by = self._parse_expression()
        descending = self._match_keyword("DESC")
        self._expect_punct(")")
        self._expect_operator("=")
        token = self._peek()
        if token.type is not TokenType.NUMBER or token.value != "1":
            raise ParseError(f"Expected 1, found {token.value!r}", token.position, self.sql)
        self._advance()
        return FirstPerPartition(partition_by, order_by, descending)

    # -- expressions (precedence climbing) ---------------------------------------
    def _parse_expression(self) -> Expression:
        token = self.tokens[self.pos]
        if token.type in _LONE_TYPES or (token.type is TokenType.KEYWORD and token.value in _LONE_KEYWORDS):
            # A literal or column name followed by a token no operator level
            # consumes is the whole expression: the levels would each find
            # no operator and hand it back unchanged.
            following = self.tokens[self.pos + 1]
            kind = following.type
            if (
                kind is TokenType.EOF
                or (kind is TokenType.PUNCT and following.value in _ENDS_PUNCT)
                or (kind is TokenType.KEYWORD and following.value in _ENDS_KEYWORDS)
            ):
                return self._parse_primary()
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_comparison()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> Expression:
        left = self._parse_unary()
        while True:
            op = self._match_operator("=", "<>", "!=", "<", ">", "<=", ">=")
            if op is not None:
                op = "<>" if op == "!=" else op
                left = BinaryOp(op, left, self._parse_unary())
                continue
            if not self._match_keyword("IN"):
                return left
            self._expect_punct("(")
            items = [self._parse_expression()]
            while self._match_punct(","):
                items.append(self._parse_expression())
            self._expect_punct(")")
            left = InList(left, items)

    def _parse_unary(self) -> Expression:
        if self._match_operator("-"):
            return UnaryOp("-", self._parse_unary())
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
        if self._match_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return ColumnRef(token.value)
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
        target = parse_type(self._expect_identifier())
        self._expect_punct(")")
        return Cast(operand, target)
