"""The per-character SQL tokenizer, kept as the oracle for ``repro.sql.tokenizer``.

A verbatim copy of ``tokenize`` and ``is_word`` from before the tokenizer
scanned with one compiled pattern: one ``str`` predicate call per
character and one token per iteration.  ``tests/sql/test_tokenizer_oracle.py``
holds the production ``tokenize`` and ``is_word`` to it, token for token
and error for error.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sql.errors import ParseError
from repro.sql.tokenizer import KEYWORDS, Token, TokenType

_OPERATORS = ["<>", "!=", ">=", "<=", "=", "<", ">", "-", "*"]
_PUNCT = ["(", ")", ",", ";"]


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


def _starts_word(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _continues_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def is_word(text: str) -> bool:
    """Whether :func:`tokenize` reads all of ``text`` as one word token."""
    return _starts_word(text[:1]) and all(_continues_word(ch) for ch in text)


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
        if _starts_word(ch):
            j = i
            while j < n and _continues_word(sql[j]):
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
