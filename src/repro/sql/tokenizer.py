r"""SQL tokenizer.

Splits a SQL string into a stream of typed tokens.  Supports single-quoted
string literals and double-quoted identifiers, both with doubled-quote escaping,
numeric literals, line comments (``--``) and block comments (``/* */``),
and multi-character operators.

The definition is per character: a word starts with a ``str.isalpha``
character or ``_`` and continues over ``str.isalnum`` characters and ``_``;
a number runs over ``str.isdigit`` characters with one ``.`` and one
exponent; ``str.isspace`` separates tokens.  :func:`_scan_one` reads one
token by that definition.  :func:`tokenize` matches one compiled pattern at
the cursor instead (whitespace and comments, then one token) and hands the
cursor to :func:`_scan_one` wherever no token matches.  Where the pattern
matches, it reads what the definition reads:

* ``\s`` and ``\w`` are ``str.isspace`` and ``str.isalnum`` or ``_`` at every
  code point;
* a word or number must start with an ASCII character (``[A-Za-z_]``,
  ``[0-9]`` or ``.[0-9]``), so a non-ASCII letter, a digit ``\d`` misses
  (``'²'``) or a numeric character that is not alpha (``'½'``) goes to
  :func:`_scan_one`;
* each token alternative ends in a negative lookahead that rejects every
  character the definition would read on.  Each shorter end of a match is
  followed by such a character, so a rejected match cannot backtrack into
  a shorter word, number or quoted token.  A number followed by a non-ASCII
  character, ``.``, ``e``, ``+`` or ``-`` (``1-2``), and an unterminated
  quote or comment, go to :func:`_scan_one`, which raises every
  :class:`~repro.sql.errors.ParseError`;
* a run of whitespace and comments splits one way only, so it is always
  the longest and never backtracks either.

The pattern uses no atomic groups or possessive quantifiers, which Python
3.9 lacks.  ``tests/sql/test_tokenizer_oracle.py`` holds :func:`tokenize` and
:func:`is_word` to the per-character copies in ``tests/sql/tokenizer_oracle.py``.
"""

from __future__ import annotations

import enum
import re
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


# Words the grammar does not use (GROUP, LIKE, JOIN, ...) stay reserved:
# identifier quoting keys off this set, so emitted SQL stays stable.
KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE",
    "ESCAPE", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "ASC", "DESC",
    "CREATE", "OR", "REPLACE", "TABLE", "VIEW", "DROP", "IF", "EXISTS",
    "INSERT", "INTO", "VALUES", "OVER", "PARTITION", "ROWS", "TRUE", "FALSE",
    "UNION", "ALL", "JOIN", "ON", "INNER", "LEFT", "OUTER", "QUALIFY",
}

_OPERATORS = ["<>", "!=", ">=", "<=", "=", "<", ">", "-", "*"]
_PUNCT = ["(", ")", ",", ";"]


class Token:
    __slots__ = ("type", "value", "position")

    def __init__(self, type: TokenType, value: str, position: int):
        self.type = type
        self.value = value
        self.position = position

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.type, self.value, self.position) == (other.type, other.value, other.position)

    __hash__ = None  # type: ignore[assignment]  # mutable and compared by value

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


def _starts_word(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _continues_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


#: Whitespace and comments (a line comment runs to the newline, a block
#: comment to its first ``*/``), then one token, whose kind is the named
#: group that matched; with no token after it the match is just the run.
_TOKEN_RE = re.compile(
    r"(?:\s|--[^\n]*(?![^\n])|/\*(?:[^*]|\*(?!/))*\*/)*(?:"
    + "|".join((
        r'"(?P<IDENTIFIER>[^"]*(?:""[^"]*)*)"(?!")',
        r"(?P<WORD>[A-Za-z_]\w*)(?!\w)",
        r"(?P<PUNCT>[(),;])",
        r"'(?P<STRING>[^']*(?:''[^']*)*)'(?!')",
        r"(?P<OPERATOR><>|!=|>=|<=|[=<>*-])",
        r"(?P<NUMBER>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)(?![0-9.eE+\-]|[^\x00-\x7f])",
    ))
    + ")?"
)
_WORD_CHARS = re.compile(r"\w+")
_KINDS = {"NUMBER": TokenType.NUMBER, "OPERATOR": TokenType.OPERATOR, "PUNCT": TokenType.PUNCT}


def is_word(text: str) -> bool:
    """Whether :func:`tokenize` reads all of ``text`` as one word token."""
    first = text[:1]
    return (first.isalpha() or first == "_") and _WORD_CHARS.fullmatch(text) is not None


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql`` into a list of tokens ending with EOF."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    keyword, identifier, string = TokenType.KEYWORD, TokenType.IDENTIFIER, TokenType.STRING
    i = 0
    n = len(sql)
    while i < n:
        m = match(sql, i)
        kind = m.lastgroup
        if kind is None:
            # Only skipped text, or nothing: the per-character definition
            # reads (or rejects) what the pattern does not match.
            end = m.end()
            i = end if end > i else _scan_one(sql, i, tokens)
            continue
        start = m.start(kind)
        if kind == "WORD":
            word = m.group(kind)
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(keyword, upper, start))
            else:
                append(Token(identifier, word, start))
        elif kind == "IDENTIFIER":
            append(Token(identifier, m.group(kind).replace('""', '"'), start - 1))
        elif kind == "STRING":
            append(Token(string, m.group(kind).replace("''", "'"), start - 1))
        else:
            append(Token(_KINDS[kind], m.group(kind), start))
        i = m.end()
    append(Token(TokenType.EOF, "", n))
    return tokens


def _scan_one(sql: str, i: int, tokens: List[Token]) -> int:
    """Read what starts at ``i`` by the per-character definition.

    Appends the token found there, if any (whitespace and comments make
    none), and returns the index just past it.
    """
    n = len(sql)
    ch = sql[i]
    if ch.isspace():
        return i + 1
    if ch == "-" and i + 1 < n and sql[i + 1] == "-":
        while i < n and sql[i] != "\n":
            i += 1
        return i
    if ch == "/" and i + 1 < n and sql[i + 1] == "*":
        end = sql.find("*/", i + 2)
        if end == -1:
            raise ParseError("Unterminated block comment", i, sql)
        return end + 2
    if ch == "'" or ch == '"':
        text, end = _read_quoted(sql, i)
        tokens.append(Token(TokenType.STRING if ch == "'" else TokenType.IDENTIFIER, text, i))
        return end
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
        return j
    if _starts_word(ch):
        j = i
        while j < n and _continues_word(sql[j]):
            j += 1
        word = sql[i:j]
        if word.upper() in KEYWORDS:
            tokens.append(Token(TokenType.KEYWORD, word.upper(), i))
        else:
            tokens.append(Token(TokenType.IDENTIFIER, word, i))
        return j
    for op in _OPERATORS:
        if sql.startswith(op, i):
            tokens.append(Token(TokenType.OPERATOR, op, i))
            return i + len(op)
    if ch in _PUNCT:
        tokens.append(Token(TokenType.PUNCT, ch, i))
        return i + 1
    raise ParseError(f"Unexpected character {ch!r}", i, sql)
