"""Tests for CSV input/output and the atomic text write."""

import os

import pytest

from repro.dataframe import ColumnType, Table, read_csv, read_csv_text, to_csv_text, write_csv
from repro.dataframe.io import atomic_write_text


class TestReadCsvText:
    def test_basic_parse_with_types(self):
        table = read_csv_text("a,b\n1,x\n2,y\n")
        assert table.column("a").values == [1, 2]
        assert table.column("a").dtype is ColumnType.INTEGER
        assert table.column("b").values == ["x", "y"]

    def test_no_type_inference(self):
        table = read_csv_text("a\n1\n2\n", infer_types=False)
        assert table.column("a").values == ["1", "2"]
        assert table.column("a").dtype is ColumnType.VARCHAR

    def test_empty_string_is_null(self):
        table = read_csv_text("a,b\n1,\n2,z\n", infer_types=False)
        assert table.column("b").values == [None, "z"]

    def test_dmv_tokens_kept_by_default(self):
        table = read_csv_text("a\nN/A\nx\n", infer_types=False)
        assert table.column("a").values == ["N/A", "x"]

    def test_custom_null_tokens(self):
        table = read_csv_text("a\nN/A\nx\n", infer_types=False, null_tokens=["", "N/A"])
        assert table.column("a").values == [None, "x"]

    def test_short_rows_padded(self):
        table = read_csv_text("a,b\n1\n", infer_types=False)
        assert table.column("b").values == [None]

    def test_empty_input(self):
        assert read_csv_text("").num_rows == 0

    def test_quoted_values_with_commas(self):
        table = read_csv_text('a,b\n"x, y",2\n', infer_types=False)
        assert table.cell(0, "a") == "x, y"


class TestRoundTrip:
    def test_text_round_trip(self):
        original = Table.from_dict("t", {"a": ["x", None, "z"], "b": ["1", "2", "3"]})
        parsed = read_csv_text(to_csv_text(original), infer_types=False)
        assert parsed.to_dict() == original.to_dict()

    def test_file_round_trip(self, tmp_path):
        original = Table.from_dict("t", {"a": [1, 2], "b": ["x", "y"]})
        path = tmp_path / "table.csv"
        write_csv(original, path)
        loaded = read_csv(path)
        assert loaded.column("a").values == [1, 2]
        assert loaded.name == "table"

    def test_booleans_serialised_as_text(self):
        table = Table.from_dict("t", {"flag": [True, False]})
        assert "True" in to_csv_text(table)


class TestAtomicWriteText:
    def test_creates_parents_and_replaces(self, tmp_path):
        path = tmp_path / "a" / "b" / "doc.json"
        atomic_write_text(path, "one")
        atomic_write_text(str(path), "two\n")
        assert path.read_text(encoding="utf-8") == "two\n"
        assert sorted(os.listdir(path.parent)) == ["doc.json"]

    def test_failed_replace_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(path, "new")
        assert path.read_text(encoding="utf-8") == "old"
        assert sorted(os.listdir(tmp_path)) == ["doc.json"]
