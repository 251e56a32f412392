"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.dataframe import Table
from repro.sql import Database

# The SQL interpreter oracle serves tests outside tests/sql as well.
sys.path.insert(0, str(Path(__file__).resolve().parent / "sql"))


@pytest.fixture
def people_table() -> Table:
    """A small mixed-type table used across SQL and dataframe tests."""
    return Table.from_dict(
        "people",
        {
            "name": ["Ann", "Bob", "ann", None, "Eve"],
            "age": [30, 41, 30, 5, 27],
            "city": ["NY", "New York", "NY", "LA", "LA"],
            "score": [1.5, 2.5, 3.5, None, 0.5],
        },
    )


@pytest.fixture
def db(people_table: Table) -> Database:
    database = Database()
    database.register(people_table)
    return database


@pytest.fixture
def dirty_language_table() -> Table:
    """A miniature Rayyan-style table with the paper's Example 1 error."""
    languages = ["eng"] * 8 + ["English", "English"] + ["fre"] * 4 + ["French"] + ["ger"] * 3 + ["German", "chi"]
    return Table.from_dict(
        "articles",
        {
            "article_id": [str(i) for i in range(1, 21)],
            "article_language": languages,
            "notes": ["ok"] * 15 + ["N/A"] * 3 + ["--"] * 2,
            "included": ["yes"] * 12 + ["no"] * 8,
            "score": ["5", "3", "4", "2", "1", "5", "4", "3", "2", "1",
                      "5", "4", "999", "2", "1", "5", "4", "3", "2", "1"],
        },
    )
