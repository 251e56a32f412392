"""Property tests for ``repro.evaluation.metrics``: the scoring invariants.

Whatever a system outputs, the metrics must stay well-defined: precision and
recall live in [0, 1], F1 is exactly the harmonic mean, and the documented
edge cases (no repairs, perfect repairs, repairs outside the dirty-cell set,
repairs on removed or out-of-range rows) never divide by zero.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.dataframe import Table
from repro.evaluation.conventions import EvaluationConventions, values_equivalent
from repro.evaluation.metrics import Scores, error_cells, evaluate_repairs

#: Values distinct under every convention (no case/boolean/null aliasing).
VALUES = st.sampled_from(["alpha", "beta", "gamma", "delta", "42", "x1"])
STRICT = EvaluationConventions.paper_extended()


@st.composite
def benchmark_case(draw):
    """A (dirty, clean, repairs) triple over a small random table."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=3))
    columns = [f"c{i}" for i in range(n_cols)]
    clean = {c: [draw(VALUES) for _ in range(n_rows)] for c in columns}
    dirty = {
        c: [draw(VALUES) if draw(st.booleans()) else clean[c][i] for i in range(n_rows)]
        for c in columns
    }
    repairs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        row = draw(st.integers(min_value=0, max_value=n_rows + 2))  # may be out of range
        column = draw(st.sampled_from(columns))
        repairs[(row, column)] = draw(VALUES)
    return (
        Table.from_dict("dirty", dirty),
        Table.from_dict("clean", clean),
        repairs,
    )


def harmonic_mean(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r else 0.0


class TestScoreInvariants:
    @given(case=benchmark_case())
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_harmonic_mean(self, case):
        dirty, clean, repairs = case
        scores = evaluate_repairs(dirty, clean, repairs, STRICT)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert 0.0 <= scores.f1 <= 1.0
        assert math.isclose(scores.f1, harmonic_mean(scores.precision, scores.recall))
        assert scores.correct_repairs <= scores.total_repairs
        assert scores.correct_repairs <= scores.total_errors

    @given(case=benchmark_case(), removed=st.sets(st.integers(min_value=0, max_value=8)))
    @settings(max_examples=40, deadline=None)
    def test_removed_rows_never_break_scoring(self, case, removed):
        dirty, clean, repairs = case
        scores = evaluate_repairs(dirty, clean, repairs, STRICT, removed_rows=removed)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0

    @given(case=benchmark_case())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_error_cells(self, case):
        dirty, clean, repairs = case
        scores = evaluate_repairs(dirty, clean, repairs, STRICT)
        assert scores.total_errors == len(error_cells(dirty, clean, STRICT))


class TestEdgeCases:
    @given(case=benchmark_case())
    @settings(max_examples=30, deadline=None)
    def test_no_repairs_scores_zero_without_dividing(self, case):
        dirty, clean, _ = case
        scores = evaluate_repairs(dirty, clean, {}, STRICT)
        assert scores == Scores(
            precision=0.0, recall=0.0, f1=0.0,
            correct_repairs=0, total_repairs=0,
            total_errors=len(error_cells(dirty, clean, STRICT)),
        )

    @given(case=benchmark_case())
    @settings(max_examples=30, deadline=None)
    def test_perfect_repairs_score_perfectly(self, case):
        dirty, clean, _ = case
        perfect = {
            cell: clean.cell(cell[0], cell[1])
            for cell in error_cells(dirty, clean, STRICT)
        }
        scores = evaluate_repairs(dirty, clean, perfect, STRICT)
        if perfect:
            assert scores.precision == 1.0
            assert scores.recall == 1.0
            assert scores.f1 == 1.0
        else:
            # A clean table with no repairs: all-zero, not a ZeroDivisionError.
            assert scores.f1 == 0.0

    @given(case=benchmark_case())
    @settings(max_examples=30, deadline=None)
    def test_repairs_outside_dirty_cells_hurt_precision_not_crash(self, case):
        dirty, clean, _ = case
        errors = error_cells(dirty, clean, STRICT)
        # Repair a non-error cell to a wrong value: a false positive.
        target = next(
            ((r, c) for r in range(dirty.num_rows) for c in dirty.column_names
             if (r, c) not in errors),
            None,
        )
        if target is None:
            return
        current = dirty.cell(target[0], target[1])
        wrong = next(v for v in ("alpha", "beta", "gamma") if not values_equivalent(v, current, STRICT))
        scores = evaluate_repairs(dirty, clean, {target: wrong}, STRICT)
        assert scores.precision == 0.0
        assert scores.total_repairs == 1
        assert scores.correct_repairs == 0

    def test_identical_tables_have_no_errors(self):
        table = Table.from_dict("t", {"a": ["x", "y"], "b": ["1", "2"]})
        scores = evaluate_repairs(table, table, {}, STRICT)
        assert scores.total_errors == 0
        assert scores.f1 == 0.0
