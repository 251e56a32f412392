"""Regression tests: SQL-keyword and non-ASCII column names survive generation and parsing.

``quote_identifier`` used to leave lowercase keywords (``select``, ``order``,
``group``, ``from``, …) unquoted, so any generated cleaning SQL touching such
a column failed to tokenize.  Every name in the tokenizer's ``KEYWORDS`` set
must now round-trip through the SQL generator and the parser.  So must any
other name: ``str.isidentifier`` admits names the tokenizer cannot read as
one word (a combining accent, a middle dot, a Roman-numeral letter).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dialects import ReproDialect
from repro.dataframe.table import Table
from repro.sql.ast_nodes import ColumnRef
from repro.sql.database import Database
from repro.sql.parser import parse, parse_expression
from repro.sql.tokenizer import KEYWORDS

REPRO = ReproDialect()


class TestQuoteIdentifier:
    def test_plain_lowercase_names_stay_bare(self):
        assert REPRO.quote_identifier("city") == "city"
        assert REPRO.quote_identifier("zip_code") == "zip_code"

    def test_mixed_case_and_spaces_are_quoted(self):
        assert REPRO.quote_identifier("City") == '"City"'
        assert REPRO.quote_identifier("zip code") == '"zip code"'

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_keywords_are_quoted_in_any_case(self, keyword):
        for spelling in (keyword.lower(), keyword.upper(), keyword.capitalize()):
            quoted = REPRO.quote_identifier(spelling)
            assert quoted == f'"{spelling}"', (
                f"{spelling!r} collides with the {keyword} keyword and must be quoted"
            )


class TestAnyNameRoundTrip:
    @settings(max_examples=500, deadline=None)
    @given(st.text(min_size=1))
    @example("e\u0301tat")  # NFD "état", as macOS exports spell it
    @example("a\u00b7b")
    @example("\u2170")
    @example("y\u00b7")
    def test_quoted_name_parses_back_as_itself(self, name):
        assert parse_expression(REPRO.quote_identifier(name)) == ColumnRef(name)

    @pytest.mark.parametrize("name", ["e\u0301tat", "a\u00b7b", "\u2170", "y\u00b7"])
    def test_names_the_tokenizer_splits_are_quoted(self, name):
        assert name.isidentifier()
        assert REPRO.quote_identifier(name) == f'"{name}"'


class TestKeywordRoundTrip:
    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_every_keyword_parses_back_as_a_column_reference(self, keyword):
        name = keyword.lower()
        expr = parse_expression(REPRO.quote_identifier(name))
        assert isinstance(expr, ColumnRef)
        assert expr.name == name

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_every_keyword_survives_a_generated_statement(self, keyword):
        name = keyword.lower()
        statement = REPRO.select_with_replacements(
            source_table="src",
            target_table="dst",
            columns=[name, "plain"],
            replacements={name: REPRO.case_when_null(name, ["N/A"])},
            comments=[f"clean the {name!r} column"],
        )
        parsed = parse(statement)
        assert parsed.name == "dst"

    def test_generated_statement_executes_on_keyword_columns(self):
        db = Database()
        db.register(
            Table.from_dict(
                "src",
                {"select": ["a", "N/A"], "order": [2, 1], "group": ["x", "y"]},
            )
        )
        statement = REPRO.select_with_replacements(
            source_table="src",
            target_table="dst",
            columns=["select", "order", "group"],
            replacements={"select": REPRO.case_when_null("select", ["N/A"])},
        )
        db.sql(statement)
        result = db.sql('SELECT "select", "group", "order" < 2 AS "first" FROM dst')
        assert result.to_dict() == {"select": ["a", None], "group": ["x", "y"], "first": [False, True]}
