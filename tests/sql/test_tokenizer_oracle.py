"""The compiled-pattern tokenizer answers like the per-character definition.

``tokenizer_oracle.py`` keeps ``tokenize`` and ``is_word`` as they were
before the tokenizer scanned with one compiled pattern.  Over text drawn
from SQL fragments and from Unicode letters, digits, numerics, spaces and
combining marks, the two must produce the same tokens (type, value and
position) or the same :class:`ParseError` (message and position).  The
parser's lone-operand shortcut is held to the full precedence climb the
same way.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CocoonCleaner, load_dataset
from repro.sql import parser as parser_module
from repro.sql.database import split_statements
from repro.sql.errors import ParseError
from repro.sql.parser import parse, parse_expression
from repro.sql.tokenizer import is_word, tokenize

import tokenizer_oracle

#: Pieces the pattern and the per-character definition could read apart:
#: quotes and doubled quotes, comment openers and closers, number parts,
#: operators, and characters where a regex class and a ``str`` predicate
#: differ (``'\u00b2'`` is a digit ``\d`` misses, ``'\u00bd'`` is numeric but
#: not alpha, U+0301 combines, U+00A0 and U+2028 are spaces, U+0663 is a
#: non-ASCII decimal digit, U+00DF upper-cases to two letters).
FRAGMENTS = [
    "'", '"', "''", '""', "--", "/*", "*/", "*", "/", "\n", " ", "\t",
    "0", "7", "1.5", ".", "e", "E", "+", "-", "1e", "1e-", ".5",
    "a", "Z", "_", "x1", "select", "FROM", "null", "when",
    "=", "<", ">", "<>", "!=", "!", "<=", ">=", "(", ")", ",", ";",
    "\u00b2", "\u00bd", "\u00e9", "\u0301", "e\u0301", "\u0663", "\u00df",
    "\u00a0", "\u2028", "\x1c", "\u2170", "\u00b7",
]
SQL_TEXT = st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join)
UNICODE_TEXT = st.text(
    alphabet=st.characters(whitelist_categories=("L", "M", "N", "Z", "P", "S", "Cc")),
    max_size=12,
)


def outcome(tokenizer, sql):
    try:
        return [(t.type, t.value, t.position) for t in tokenizer(sql)]
    except ParseError as error:
        return ("ParseError", str(error), error.position)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(SQL_TEXT, UNICODE_TEXT))
@example("e\u0301tat")  # NFD "etat" with an accent: the word ends at the combining mark
@example("1\u00b2 .\u00b2 \u00bdx \u00e9t\u00e9")
@example("1.2.3 1e5e 1e+-2 1-2 1--c\n 12\u00b2")
@example("'a''' 'it''s' 'open")
@example('"a""b" "open')
@example("/*/ x */ /**/ /* open")
@example("a -- to the end\n b")
def test_tokens_and_errors_match_the_per_character_tokenizer(sql):
    assert outcome(tokenize, sql) == outcome(tokenizer_oracle.tokenize, sql)


def test_random_fragment_strings_match_the_per_character_tokenizer():
    # A seeded sweep wider than hypothesis reaches: most backtracking faults
    # show in a few of every thousand strings.
    rng = random.Random(0)
    for _ in range(20000):
        sql = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 10)))
        assert outcome(tokenize, sql) == outcome(tokenizer_oracle.tokenize, sql), sql


@pytest.mark.parametrize(
    "sql",
    [
        " " * 2000 + "!",
        "-- a -- b " * 500 + "\n!",
        "/* " + "*" * 2000,
        "'" + "''" * 2000,
        "1" * 2000 + "\u00b2",
        "x " * 2000 + "   ",
    ],
)
def test_long_runs_match_the_per_character_tokenizer(sql):
    assert outcome(tokenize, sql) == outcome(tokenizer_oracle.tokenize, sql)


def test_tokens_compare_by_value():
    first, second = tokenize("a"), tokenize("a")
    assert first == second and first[0] is not second[0]
    assert tokenize("a") != tokenize(" a")
    assert first[0].is_keyword() is False and tokenize("END")[0].is_keyword("END", "ELSE")


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text(max_size=8), UNICODE_TEXT, SQL_TEXT))
@example("")
@example("e\u0301tat")
@example("\u00e9tat")
@example("_\u00b2")
@example("\u00bd")
@example("a\nb")
def test_is_word_matches_the_per_character_definition(text):
    assert is_word(text) == tokenizer_oracle.is_word(text)


# -- parser: the lone-operand shortcut ------------------------------------------

EXPRESSION_PARTS = [
    "a", '"b c"', "1", "2.5", "'x'", "NULL", "TRUE", "FALSE", "-", "NOT", "(", ")", ",",
    "=", "<>", "<", ">=", "AND", "OR", "IN", "CASE", "WHEN", "THEN", "ELSE", "END",
    "CAST", "AS", "INTEGER", "REGEXP_FULL_MATCH", "upper", "FROM", "t",
]
EXPRESSIONS = st.lists(st.sampled_from(EXPRESSION_PARTS), max_size=10).map(" ".join)


def parsed(parse_fn, sql):
    try:
        return repr(parse_fn(sql))
    except ParseError as error:
        return ("ParseError", str(error), error.position)
    except (ValueError, TypeError) as error:
        return (type(error).__name__, str(error))


def climbing_every_level(monkeypatch):
    monkeypatch.setattr(parser_module.Parser, "_parse_expression", parser_module.Parser._parse_or)


@settings(max_examples=1500, deadline=None)
@given(EXPRESSIONS)
@example("CASE a WHEN 'x' THEN 'y' ELSE a END")
@example("CAST(a AS INTEGER)")
@example("upper(a, 1) = 'x'")
def test_expressions_parse_as_with_every_precedence_level(sql):
    shortcut = (parsed(parse_expression, sql), parsed(parse, "SELECT " + sql + " FROM t"))
    with pytest.MonkeyPatch.context() as patch:
        climbing_every_level(patch)
        full = (parsed(parse_expression, sql), parsed(parse, "SELECT " + sql + " FROM t"))
    assert shortcut == full


@pytest.fixture(scope="module")
def emitted_statements():
    statements = []
    for name in ("hospital", "flights", "beers"):
        result = CocoonCleaner().clean(load_dataset(name, scale=0.05).dirty)
        statements.extend(split_statements(result.sql_script))
    return statements


def test_emitted_statements_parse_as_with_every_precedence_level(emitted_statements, monkeypatch):
    assert len(emitted_statements) > 20
    shortcut = [parsed(parse, sql) for sql in emitted_statements]
    climbing_every_level(monkeypatch)
    assert [parsed(parse, sql) for sql in emitted_statements] == shortcut
    assert not any(isinstance(tree, tuple) for tree in shortcut)
