"""Integration tests: full systems on full (small-scale) benchmarks."""

import pytest

from repro.datasets import load_dataset
from repro.evaluation import EvaluationConventions
from repro.evaluation.runner import ExperimentRunner
from repro.experiments import ExperimentMatrix, f1_series, format_table1, format_table2, format_table3
from repro.experiments.figures import ascii_bar_chart, workflow_trace
from repro.core import CocoonCleaner

SCALE = 0.08
SEED = 7


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(seed=SEED)


@pytest.fixture(scope="module")
def hospital():
    return load_dataset("hospital", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def rayyan():
    return load_dataset("rayyan", seed=SEED, scale=SCALE)


class TestCocoonOnBenchmarks:
    def test_cocoon_beats_baselines_on_hospital(self, runner, hospital):
        cocoon = runner.run_system("Cocoon", hospital)
        holoclean = runner.run_system("HoloClean", hospital)
        cleanagent = runner.run_system("CleanAgent", hospital)
        assert cocoon.scores.f1 > holoclean.scores.f1
        assert cocoon.scores.f1 > cleanagent.scores.f1
        assert cocoon.scores.f1 > 0.6

    def test_cocoon_fixes_language_codes_on_rayyan(self, runner, rayyan):
        cocoon = runner.run_system("Cocoon", rayyan)
        assert cocoon.scores.f1 > 0.4
        assert cocoon.scores.precision > 0.5

    def test_cocoon_high_precision_low_recall_on_flights(self, runner):
        flights = load_dataset("flights", seed=SEED, scale=SCALE)
        cocoon = runner.run_system("Cocoon", flights)
        assert cocoon.scores.precision > 0.8
        assert cocoon.scores.recall < 0.75

    def test_cleanagent_and_retclean_near_zero_on_beers(self, runner):
        beers = load_dataset("beers", seed=SEED, scale=SCALE)
        assert runner.run_system("CleanAgent", beers).scores.f1 < 0.1
        assert runner.run_system("RetClean", beers).scores.f1 < 0.2

    def test_workflow_trace_renders(self, hospital):
        result = CocoonCleaner().clean(hospital.dirty)
        trace = workflow_trace(result)
        assert "string_outliers" in trace


class TestExtendedEvaluation:
    def test_table3_cocoon_handles_type_and_dmv_errors(self, hospital):
        runner = ExperimentRunner(conventions=EvaluationConventions.paper_extended(), seed=SEED)
        cocoon = runner.run_system("Cocoon", hospital, clean_override=hospital.extended_clean)
        cleanagent = runner.run_system("CleanAgent", hospital, clean_override=hospital.extended_clean)
        assert cocoon.scores.f1 > 0.8
        assert cocoon.scores.f1 > cleanagent.scores.f1


class TestExperimentFormatting:
    def test_table2_census(self):
        rows = ExperimentMatrix(tables=["table2"], seed=SEED, scale=SCALE).run().table2_rows()
        assert set(rows) == {"hospital", "movies"}
        assert rows["hospital"]["column_type"] > 0
        text = format_table2(rows)
        assert "Table 2" in text

    def test_table1_and_figure_formatting(self, runner, hospital):
        results = [runner.run_system(name, hospital) for name in ("Cocoon", "CleanAgent")]
        table_text = format_table1(results)
        assert "Cocoon" in table_text and "hospital" in table_text
        chart = ascii_bar_chart(f1_series(results))
        assert "Cocoon" in chart

    def test_table3_formatting(self, runner, hospital):
        results = [runner.run_system("Cocoon", hospital, clean_override=hospital.extended_clean)]
        assert "Table 3" in format_table3(results)


class TestSampledEvaluation:
    def test_movies_sampling_for_memory_limited_systems(self, runner):
        movies = load_dataset("movies", seed=SEED, scale=0.2)
        result = runner.run_system("HoloClean", movies)
        assert result.sampled_rows == 1000 or result.sampled_rows is None
