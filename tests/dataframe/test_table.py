"""Tests for Column and Table operations."""

import pytest

from repro.dataframe import Column, ColumnType, Table


class TestColumn:
    def test_null_statistics(self):
        column = Column("c", ["a", None, "b", None])
        assert column.null_count() == 2
        assert column.null_fraction() == 0.5

    def test_distinct_preserves_order(self):
        column = Column("c", ["b", "a", "b", None, "a"])
        assert column.distinct() == ["b", "a", None]

    def test_unique_ratio(self):
        assert Column("c", ["a", "b", "c"]).unique_ratio() == 1.0
        assert Column("c", ["a", "a", "a", "a"]).unique_ratio() == 0.25

    def test_value_counts_excludes_nulls(self):
        counts = Column("c", ["x", "x", None, "y"]).value_counts()
        assert counts["x"] == 2
        assert counts["y"] == 1
        assert sum(counts.values()) == 3


class TestTableConstruction:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [Column("a", [1, 2]), Column("b", [1])])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [Column("a", [1]), Column("a", [2])])

    def test_from_rows_row_width_checked(self):
        with pytest.raises(ValueError):
            Table.from_rows("t", ["a", "b"], [[1]])

    def test_shape(self, people_table):
        assert people_table.shape == (5, 4)


class TestTableAccess:
    def test_cell_and_row(self, people_table):
        assert people_table.cell(0, "name") == "Ann"
        assert people_table.row(1)["city"] == "New York"

    def test_missing_column_raises(self, people_table):
        with pytest.raises(KeyError):
            people_table.column("nope")

    def test_contains(self, people_table):
        assert "name" in people_table
        assert "nope" not in people_table


class TestTableTransforms:
    def test_select_and_drop(self, people_table):
        assert people_table.select(["name", "age"]).column_names == ["name", "age"]
        assert "city" not in people_table.drop(["city"]).column_names

    def test_with_column_replaces(self, people_table):
        replaced = people_table.with_column(Column("age", [0, 0, 0, 0, 0]))
        assert replaced.column("age").values == [0, 0, 0, 0, 0]
        assert people_table.column("age").values != [0, 0, 0, 0, 0]

    def test_set_cell_returns_new_table(self, people_table):
        updated = people_table.set_cell(0, "name", "Zed")
        assert updated.cell(0, "name") == "Zed"
        assert people_table.cell(0, "name") == "Ann"

    def test_head_and_take(self, people_table):
        assert people_table.head(2).num_rows == 2
        assert people_table.take([4, 0]).column("name").values == ["Eve", "Ann"]

    def test_concat_rows(self, people_table):
        doubled = people_table.concat_rows(people_table)
        assert doubled.num_rows == 10

    def test_concat_rows_requires_same_columns(self, people_table):
        with pytest.raises(ValueError):
            people_table.concat_rows(people_table.drop(["city"]))

    def test_concat_preserves_types(self):
        a = Table("t", [Column("x", ["1", "2"], ColumnType.VARCHAR)])
        b = Table("t", [Column("x", ["3"], ColumnType.VARCHAR)])
        merged = a.concat(b)
        assert merged.column("x").values == ["1", "2", "3"]
        assert merged.column("x").dtype is ColumnType.VARCHAR

    def test_concat_rejects_type_mismatch(self):
        a = Table("t", [Column("x", [1, 2], ColumnType.INTEGER)])
        b = Table("t", [Column("x", ["3"], ColumnType.VARCHAR)])
        with pytest.raises(ValueError, match="mismatched column types"):
            a.concat(b)
        unchecked = a.concat(b, check_types=False)
        assert unchecked.num_rows == 3

    def test_concat_rejects_column_mismatch(self, people_table):
        with pytest.raises(ValueError, match="different columns"):
            people_table.concat(people_table.select(["age", "name", "city", "score"]))

    def test_append_rows_sequences(self, people_table):
        appended = people_table.append_rows([["Fay", 22, "SF", 4.5], ["Gil", None, "NY", None]])
        assert appended.num_rows == 7
        assert appended.cell(5, "name") == "Fay"
        assert appended.cell(6, "age") is None
        assert people_table.num_rows == 5  # original untouched
        for before, after in zip(people_table.columns, appended.columns):
            assert before.dtype is after.dtype

    def test_append_rows_mappings(self, people_table):
        appended = people_table.append_rows([{"name": "Hao", "age": 33}])
        assert appended.cell(5, "name") == "Hao"
        assert appended.cell(5, "city") is None

    def test_append_rows_rejects_bad_width_and_keys(self, people_table):
        with pytest.raises(ValueError, match="width"):
            people_table.append_rows([["only", "three", "cells"]])
        with pytest.raises(ValueError, match="keys"):
            people_table.append_rows([{"name": "x", "nope": 1}])

    def test_to_display_contains_null_marker(self, people_table):
        assert "NULL" in people_table.to_display()
