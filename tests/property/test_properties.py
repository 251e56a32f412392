"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.dataframe import Table, read_csv_text, to_csv_text
from repro.evaluation import EvaluationConventions, evaluate_repairs, values_equivalent
from repro.evaluation.metrics import error_cells
from repro.llm import parsing
from repro.llm.semantic import edit_distance, value_shape
from repro.profiling.fd import discover_fds
from repro.sql import Database

# -- strategies -------------------------------------------------------------------
cell_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .-_'",
    min_size=0,
    max_size=12,
)
cell_value = st.one_of(st.none(), cell_text)


@st.composite
def small_tables(draw):
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n_cols = draw(st.integers(min_value=1, max_value=4))
    names = [f"c{i}" for i in range(n_cols)]
    data = {name: draw(st.lists(cell_value, min_size=n_rows, max_size=n_rows)) for name in names}
    return Table.from_dict("t", data)


# -- CSV round trip ------------------------------------------------------------------
class TestCsvRoundTrip:
    @given(small_tables())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_cells(self, table):
        parsed = read_csv_text(to_csv_text(table), infer_types=False)
        assert parsed.num_rows == table.num_rows
        for column in table.column_names:
            original = ["" if v is None else str(v) for v in table.column(column).values]
            loaded = ["" if v is None else str(v) for v in parsed.column(column).values]
            assert original == loaded


# -- SQL engine vs python oracle --------------------------------------------------------
class TestSqlOracle:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_aggregates_match_python(self, values):
        db = Database()
        db.register(Table.from_dict("t", {"v": values}))
        assert db.scalar("SELECT COUNT(*) FROM t") == len(values)
        assert db.scalar("SELECT SUM(v) FROM t") == sum(values)
        assert db.scalar("SELECT MIN(v) FROM t") == min(values)
        assert db.scalar("SELECT MAX(v) FROM t") == max(values)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
        st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_where_filter_matches_python(self, values, threshold):
        db = Database()
        db.register(Table.from_dict("t", {"v": values}))
        result = db.sql(f"SELECT v FROM t WHERE v > {threshold}")
        assert sorted(result.column("v").values) == sorted(v for v in values if v > threshold)

    @given(st.lists(cell_text, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_distinct_matches_python(self, values):
        db = Database()
        db.register(Table.from_dict("t", {"v": values}))
        result = db.sql("SELECT DISTINCT v FROM t")
        assert result.num_rows == len(set(values))


# -- metric identities -----------------------------------------------------------------
class TestMetricProperties:
    @given(small_tables())
    @settings(max_examples=40, deadline=None)
    def test_perfect_repair_yields_perfect_recall(self, clean):
        # Corrupt the first column deterministically, then repair it exactly.
        if clean.num_rows == 0:
            return
        column = clean.column_names[0]
        dirty = clean.set_cell(0, column, "###corrupted###")
        errors = error_cells(dirty, clean)
        repairs = {cell: clean.cell(cell[0], cell[1]) for cell in errors}
        scores = evaluate_repairs(dirty, clean, repairs)
        if errors:
            assert scores.recall == 1.0
            assert scores.precision == 1.0
        assert 0.0 <= scores.f1 <= 1.0

    @given(small_tables())
    @settings(max_examples=40, deadline=None)
    def test_scores_always_bounded(self, table):
        repairs = {(0, table.column_names[0]): "x"}
        scores = evaluate_repairs(table, table, repairs)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert 0.0 <= scores.f1 <= 1.0

    @given(cell_value, cell_value)
    @settings(max_examples=100, deadline=None)
    def test_equivalence_is_symmetric(self, a, b):
        conv = EvaluationConventions.paper_main()
        assert values_equivalent(a, b, conv) == values_equivalent(b, a, conv)

    @given(cell_value)
    @settings(max_examples=100, deadline=None)
    def test_equivalence_is_reflexive(self, a):
        assert values_equivalent(a, a)


# -- semantic engine invariants ---------------------------------------------------------
class TestSemanticProperties:
    @given(cell_text, cell_text)
    @settings(max_examples=100, deadline=None)
    def test_edit_distance_symmetry_and_identity(self, a, b):
        assert edit_distance(a, a, 3) == 0
        assert edit_distance(a, b, 3) == edit_distance(b, a, 3)

    @given(cell_text)
    @settings(max_examples=100, deadline=None)
    def test_value_shape_fullmatches_its_value(self, text):
        import re

        shape = value_shape(text)
        assert re.fullmatch(shape, text) is not None

    @given(st.dictionaries(cell_text.filter(bool), cell_text, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_mapping_yaml_round_trip(self, mapping):
        rendered = parsing.render_mapping_yaml("explanation", mapping)
        _, parsed = parsing.parse_mapping_yaml(rendered)
        cleaned = {k.strip(): v.strip() for k, v in mapping.items() if k.strip()}
        parsed_cmp = {k.strip(): v.strip() for k, v in parsed.items()}
        assert parsed_cmp == cleaned


# -- FD scoring invariants ----------------------------------------------------------------
def _fd_scores(table):
    """Every scored pair's entropy score, near-unique determinants included."""
    candidates = discover_fds(table, min_score=0.0, max_determinant_distinct_ratio=1.0)
    return {(c.determinant, c.dependent): c.score for c in candidates}


class TestFdProperties:
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_score_bounded(self, pairs):
        table = Table.from_dict("t", {"l": [p[0] for p in pairs], "r": [p[1] for p in pairs]})
        assert all(0.0 <= score <= 1.0 for score in _fd_scores(table).values())

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_exact_dependency_scores_one(self, lhs):
        rhs = [value.upper() for value in lhs]
        table = Table.from_dict("t", {"l": lhs, "r": rhs})
        scores = _fd_scores(table)
        # A one-value column is never a candidate; otherwise both directions hold exactly.
        assert scores == ({("l", "r"): 1.0, ("r", "l"): 1.0} if len(set(lhs)) > 1 else {})
