"""SQL tokenizer.

Splits a SQL string into a stream of typed tokens.  Supports single-quoted
string literals and double-quoted identifiers, both with doubled-quote escaping,
numeric literals, line comments (``--``) and block comments (``/* */``),
and multi-character operators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.sql.errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


# JOIN / ON / INNER / LEFT / OUTER stay reserved although the parser rejects
# joins: identifier quoting keys off this set, so emitted SQL stays stable.
KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE",
    "ESCAPE", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "ASC", "DESC",
    "CREATE", "OR", "REPLACE", "TABLE", "VIEW", "DROP", "IF", "EXISTS",
    "INSERT", "INTO", "VALUES", "OVER", "PARTITION", "ROWS", "TRUE", "FALSE",
    "UNION", "ALL", "JOIN", "ON", "INNER", "LEFT", "OUTER", "QUALIFY",
}

_OPERATORS = ["<>", "!=", ">=", "<=", "||", "=", "<", ">", "+", "-", "*", "/", "%"]
_PUNCT = ["(", ")", ",", ".", ";"]


@dataclass
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r})"


def _read_quoted(sql: str, start: int) -> Tuple[str, int]:
    """The text quoted at ``start`` and the index just past its closing quote.

    Inside the quotes a doubled quote character stands for one, in string
    literals (``'it''s'``) and quoted identifiers (``"a""b"``) alike.
    """
    quote = sql[start]
    parts = []
    i = start + 1
    while True:
        end = sql.find(quote, i)
        if end == -1:
            what = "string literal" if quote == "'" else "quoted identifier"
            raise ParseError(f"Unterminated {what}", start, sql)
        parts.append(sql[i:end])
        if not sql.startswith(quote, end + 1):
            return "".join(parts), end + 1
        parts.append(quote)
        i = end + 2


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql`` into a list of tokens ending with EOF."""
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and sql[i + 1] == "-":
            while i < n and sql[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and sql[i + 1] == "*":
            end = sql.find("*/", i + 2)
            if end == -1:
                raise ParseError("Unterminated block comment", i, sql)
            i = end + 2
            continue
        if ch == "'" or ch == '"':
            text, end = _read_quoted(sql, i)
            tokens.append(Token(TokenType.STRING if ch == "'" else TokenType.IDENTIFIER, text, i))
            i = end
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            saw_dot = False
            saw_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not saw_dot and not saw_exp:
                    saw_dot = True
                    j += 1
                elif c in "eE" and not saw_exp and j > i:
                    saw_exp = True
                    j += 1
                    if j < n and sql[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            if word.upper() in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word.upper(), i))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, i))
            i = j
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise ParseError(f"Unexpected character {ch!r}", i, sql)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens
