"""Columnar access paths: handles, vectors, masks and one-pass construction."""

import math

import pytest

from repro.dataframe.column import Column
from repro.dataframe.table import Table


@pytest.fixture()
def table():
    return Table.from_rows(
        "t",
        ["a", "b"],
        [(1, "x"), (2, "y"), (None, "z")],
    )


class TestFromRows:
    def test_single_pass_transpose(self, table):
        assert table.column_values("a") == [1, 2, None]
        assert table.column_values("b") == ["x", "y", "z"]
        assert table.shape == (3, 2)

    def test_accepts_a_generator(self):
        t = Table.from_rows("t", ["a"], ((i,) for i in range(4)))
        assert t.column_values("a") == [0, 1, 2, 3]

    def test_zero_rows_keeps_all_columns(self):
        t = Table.from_rows("t", ["a", "b"], [])
        assert t.column_names == ["a", "b"]
        assert t.num_rows == 0

    def test_width_mismatch_error_message(self):
        with pytest.raises(ValueError, match="Row width 3 does not match column count 2"):
            Table.from_rows("t", ["a", "b"], [(1, 2), (1, 2, 3)])

    def test_roundtrip_with_row_tuples(self, table):
        assert Table.from_rows("t2", table.column_names, table.row_tuples()).row_tuples() == table.row_tuples()


class TestColumnHandles:
    def test_itercolumns_yields_live_handles(self, table):
        handles = list(table.itercolumns())
        assert [h.name for h in handles] == ["a", "b"]
        assert handles[0] is table.columns[0]

    def test_column_values_is_the_live_vector(self, table):
        assert table.column_values("a") is table.column("a").values

    def test_column_values_unknown_column(self, table):
        with pytest.raises(KeyError):
            table.column_values("nope")


class TestColumnVectorHelpers:
    def test_take_gathers_by_index(self):
        col = Column("x", [10, 20, 30, 40])
        taken = col.take([3, 1, 1])
        assert taken.values == [40, 20, 20]
        assert taken.name == "x"
        assert taken.dtype == col.dtype


class TestRowTuples:
    def test_transposes_all_columns(self, table):
        assert table.row_tuples() == [(1, "x"), (2, "y"), (None, "z")]

    def test_no_columns_is_empty(self):
        assert Table("t", []).row_tuples() == []

    def test_nan_survives_the_transpose(self):
        t = Table.from_dict("t", {"v": [1.0, float("nan")]})
        rows = t.row_tuples()
        assert math.isnan(rows[1][0])
