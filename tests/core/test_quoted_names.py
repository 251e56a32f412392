"""Column names that must be quoted — containing ``"``, a space or ``-``, or
a combining accent — survive a whole clean: the emitted script re-parses,
runs in-process and on sqlite, and matches the pipeline's own output."""

from __future__ import annotations

from repro import CocoonCleaner
from repro.dataframe import Table
from repro.sql.differential import run_differential

QUOTE, SPACE, DASH = 'q"uote', "two words", "dash-ed"
#: "état" in NFD: a valid Python identifier the SQL tokenizer splits at the accent.
NFD_ETAT = "e\u0301tat"


def _odd_names_table() -> Table:
    return Table.from_dict(
        "odd names",
        {
            QUOTE: ["eng"] * 6 + ["English"] * 2,
            SPACE: ["1", "2", "3", "4", "5", "6", "7", "N/A"],
            DASH: ["a", "b"] * 4,
        },
    )


def test_clean_rewrites_columns_with_quotes_spaces_and_dashes():
    result = CocoonCleaner().clean(_odd_names_table())
    cleaned = result.cleaned_table
    assert cleaned.column_names == [QUOTE, SPACE, DASH]
    assert cleaned.column(QUOTE).values == ["eng"] * 8
    assert cleaned.column(SPACE).values == [1, 2, 3, 4, 5, 6, 7, None]
    assert '"q""uote"' in result.sql_script


def test_emitted_script_replays_on_both_engines():
    result = run_differential(_odd_names_table(), "odd names", "table")
    assert result.steps > 0
    assert result.ok, result.mismatches


def _nfd_named_table() -> Table:
    return Table.from_dict(
        "etats",
        {
            NFD_ETAT: ["ok"] * 6 + ["OK", "N/A"],
            "n": ["1", "2", "3", "4", "5", "6", "7", "x"],
        },
    )


def test_clean_of_a_combining_accent_column_name():
    result = CocoonCleaner().clean(_nfd_named_table())
    assert result.cleaned_table.column_names == [NFD_ETAT, "n"]
    assert any(r.applied for r in result.operator_results)
    assert f'"{NFD_ETAT}"' in result.sql_script
    differential = run_differential(_nfd_named_table(), "etats", "table")
    assert differential.ok, differential.mismatches
