"""Layout tests for the table formatters and figure helpers (no systems run)."""

from __future__ import annotations

import pytest

from repro.evaluation.metrics import Scores
from repro.evaluation.runner import SystemResult
from repro.experiments.figures import ascii_bar_chart, f1_series
from repro.experiments.matrix import ExperimentMatrix, UnknownNameError, build_grid
from repro.experiments.table1 import PAPER_TABLE1, format_table1
from repro.experiments.table2 import PAPER_TABLE2, format_table2
from repro.experiments.table3 import format_table3


def result(system, dataset, p, r, f, sampled=None, notes=""):
    return SystemResult(
        system=system,
        dataset=dataset,
        scores=Scores(precision=p, recall=r, f1=f),
        sampled_rows=sampled,
        notes=notes,
    )


@pytest.fixture
def results():
    return [
        result("HoloClean", "hospital", 1.0, 0.46, 0.63),
        result("Cocoon", "hospital", 0.87, 0.93, 0.90),
        result("HoloClean", "movies", 0.0, 0.0, 0.0, sampled=1000),
        result("Cocoon", "movies", 0.91, 0.83, 0.87),
    ]


class TestFormatTable1:
    def test_layout(self, results):
        text = format_table1(results, include_paper=False)
        lines = text.splitlines()
        assert lines[0].startswith("Table 1")
        header = lines[1]
        assert header.startswith("System")
        assert header.index("hospital") < header.index("movies")
        # Systems appear in presentation order, one row each.
        holoclean_row = next(line for line in lines if line.startswith("HoloClean"))
        cocoon_row = next(line for line in lines if line.startswith("Cocoon"))
        assert lines.index(holoclean_row) < lines.index(cocoon_row)
        assert "0.63" in holoclean_row and "0.90" in cocoon_row

    def test_sampled_rows_annotated_with_star(self, results):
        text = format_table1(results, include_paper=False)
        holoclean_row = next(line for line in text.splitlines() if line.startswith("HoloClean"))
        assert "*" in holoclean_row
        cocoon_row = next(line for line in text.splitlines() if line.startswith("Cocoon"))
        assert "*" not in cocoon_row
        assert "first 1000 rows" in text

    def test_include_paper_appends_reference_f1(self, results):
        with_paper = format_table1(results, include_paper=True)
        without = format_table1(results, include_paper=False)
        assert "Paper-reported F1" in with_paper
        assert "Paper-reported F1" not in without
        paper_f1 = f"{PAPER_TABLE1['Cocoon']['hospital'][2]:.2f}"
        assert paper_f1 in with_paper.split("Paper-reported F1")[1]

    def test_missing_cells_leave_blanks(self):
        text = format_table1([result("Cocoon", "hospital", 0.9, 0.9, 0.9)], include_paper=False)
        assert "HoloClean" not in text

    def test_unknown_system_restriction_raises(self):
        with pytest.raises(UnknownNameError, match="Imaginary"):
            build_grid(tables=["table1"], systems=["Imaginary"], scale=0.03)


class TestFormatTable2:
    def test_layout_and_paper_reference(self):
        rows = {
            "hospital": {"size": "50 x 19", "typo": 6, "fd_violation": 10,
                         "column_type": 120, "inconsistency": 0, "dmv": 8, "misplacement": 0},
        }
        text = format_table2(rows, include_paper=True)
        lines = text.splitlines()
        assert lines[0].startswith("Table 2")
        assert lines[1].startswith("Dataset")
        assert "50 x 19" in text
        assert "Paper-reported counts" in text
        assert str(PAPER_TABLE2["movies"]["column_type"]) in text
        assert "Paper-reported" not in format_table2(rows, include_paper=False)


class TestFormatTable3:
    def test_layout_and_paper_reference(self, results):
        text = format_table3(results, include_paper=True)
        assert text.splitlines()[0].startswith("Table 3")
        assert "Approach" in text
        assert "Paper-reported F1" in text
        assert "Paper-reported" not in format_table3(results, include_paper=False)

    def test_unknown_system_restriction_raises(self):
        with pytest.raises(UnknownNameError, match="Imaginary"):
            ExperimentMatrix(tables=["table3"], systems=["Imaginary"], scale=0.03)


class TestFigures:
    def test_f1_series_shape(self, results):
        series = f1_series(results)
        assert series["Cocoon"]["hospital"] == 0.90
        assert set(series) == {"HoloClean", "Cocoon"}
        assert set(series["Cocoon"]) == {"hospital", "movies"}

    def test_ascii_bar_chart_scales_bars(self, results):
        chart = ascii_bar_chart(f1_series(results), width=10)
        lines = chart.splitlines()
        assert lines[0] == "F1 comparison across systems"
        assert "hospital" in chart and "movies" in chart
        cocoon_line = next(
            line for line in lines if line.strip().startswith("Cocoon") and "0.90" in line
        )
        assert "#" * 9 in cocoon_line
        zero_line = next(line for line in lines if "0.00" in line)
        assert "#" not in zero_line

    def test_empty_series_renders_header_only(self):
        assert ascii_bar_chart({}) == "F1 comparison across systems"
