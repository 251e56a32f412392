"""Direct coverage for ``repro.evaluation.runner`` (context, phases, fallback)."""

from __future__ import annotations

import pytest

from repro.baselines import CleaningSystem, SystemOutput
from repro.baselines.holoclean.system import HoloCleanMemoryError
from repro.datasets import load_dataset
from repro.evaluation.conventions import EvaluationConventions
from repro.evaluation.runner import (
    GROUND_TRUTH_CONSTRAINTS,
    LABELED_TUPLES,
    ExperimentRunner,
)

SCALE = 0.05
SEED = 3


@pytest.fixture(scope="module")
def hospital():
    return load_dataset("hospital", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(seed=SEED)


class TestBuildContext:
    def test_constraints_filtered_to_present_columns(self, runner, hospital):
        context = runner.build_context(hospital)
        for det, dep in context.denial_constraints:
            assert det in hospital.dirty.column_names
            assert dep in hospital.dirty.column_names
        assert set(context.denial_constraints) <= set(GROUND_TRUTH_CONSTRAINTS["hospital"])

    def test_labeled_cells_cover_at_most_20_tuples(self, runner, hospital):
        context = runner.build_context(hospital)
        rows = {row for row, _ in context.labeled_cells}
        assert 0 < len(rows) <= LABELED_TUPLES
        # Labels are the ground truth.
        for (row, column), value in context.labeled_cells.items():
            assert value == hospital.clean.cell(row, column)

    def test_seed_propagates(self, hospital):
        context = ExperimentRunner(seed=42).build_context(hospital)
        assert context.seed == 42


class TestPhases:
    def test_run_system_equals_repair_plus_score(self, runner, hospital):
        outcome = runner.run_repair("RetClean", hospital)
        split = runner.score_repair(outcome, hospital)
        direct = runner.run_system("RetClean", hospital)
        for field in ("system", "dataset", "sampled_rows", "notes", "detected", "repaired", "llm_calls"):
            assert getattr(split, field) == getattr(direct, field)
        assert split.scores == direct.scores

    def test_one_outcome_scored_under_two_conventions(self, runner, hospital):
        outcome = runner.run_repair("Cocoon", hospital)
        lenient = runner.score_repair(outcome, hospital, conventions=EvaluationConventions.paper_main())
        strict = runner.score_repair(
            outcome,
            hospital,
            clean_override=hospital.extended_clean,
            conventions=EvaluationConventions.paper_extended(),
        )
        # The strict evaluation counts column-type and DMV conversions as errors.
        assert strict.scores.total_errors > lenient.scores.total_errors
        assert lenient.llm_calls == strict.llm_calls > 0

    def test_unknown_system_raises_with_choices(self, runner, hospital):
        with pytest.raises(KeyError, match="Cocoon"):
            runner.run_repair("NoSuchSystem", hospital)


class _MemoryLimited(CleaningSystem):
    name = "MemoryLimited"

    def __init__(self):
        self.calls = 0

    def repair(self, dirty, context):
        self.calls += 1
        if dirty.num_rows > 10:
            raise HoloCleanMemoryError("table too large for the budget")
        return SystemOutput(repairs={}, notes=f"ran on {dirty.num_rows} rows")


class _AlwaysFailing(CleaningSystem):
    name = "AlwaysFailing"

    def repair(self, dirty, context):
        raise HoloCleanMemoryError("cannot run at any size")


class TestFallbackSampling:
    def test_oversized_system_reruns_on_head_sample(self, hospital, monkeypatch):
        import repro.evaluation.runner as runner_module

        monkeypatch.setattr(runner_module, "FALLBACK_SAMPLE_ROWS", 10)
        system = _MemoryLimited()
        runner = ExperimentRunner(systems={"MemoryLimited": lambda: system}, seed=SEED)
        result = runner.run_system("MemoryLimited", hospital)
        assert result.sampled_rows == 10
        assert system.calls == 2
        assert result.notes == "ran on 10 rows"

    def test_labeled_context_restricted_to_sample(self, hospital):
        captured = {}

        class Probe(CleaningSystem):
            name = "Probe"

            def repair(self, dirty, context):
                if dirty.num_rows > 5:
                    raise HoloCleanMemoryError("nope")
                captured["labeled"] = dict(context.labeled_cells)
                return SystemOutput()

        import repro.evaluation.runner as runner_module

        original = runner_module.FALLBACK_SAMPLE_ROWS
        runner_module.FALLBACK_SAMPLE_ROWS = 5
        try:
            runner = ExperimentRunner(systems={"Probe": Probe}, seed=SEED)
            result = runner.run_system("Probe", hospital)
        finally:
            runner_module.FALLBACK_SAMPLE_ROWS = original
        assert result.sampled_rows == 5
        assert all(row < 5 for row, _ in captured["labeled"])

    def test_failure_even_on_sample_scores_zero(self, hospital):
        runner = ExperimentRunner(systems={"AlwaysFailing": _AlwaysFailing}, seed=SEED)
        result = runner.run_system("AlwaysFailing", hospital)
        assert result.scores.f1 == 0.0
        assert "failed even on sample" in result.notes


class TestSerialisation:
    def test_to_dict_flattens_every_field(self, runner, hospital):
        result = runner.run_system("Cocoon", hospital)
        record = result.to_dict()
        assert record["llm_calls"] == result.llm_calls > 0
        scores = result.scores
        assert record == {
            "system": result.system,
            "dataset": result.dataset,
            "precision": scores.precision,
            "recall": scores.recall,
            "f1": scores.f1,
            "correct_repairs": scores.correct_repairs,
            "total_repairs": scores.total_repairs,
            "total_errors": scores.total_errors,
            "detected": result.detected,
            "repaired": result.repaired,
            "llm_calls": result.llm_calls,
            "sampled_rows": result.sampled_rows,
            "notes": result.notes,
            "runtime_seconds": result.runtime_seconds,
        }

    def test_runtime_is_the_only_nondeterministic_field(self, runner, hospital):
        first = runner.run_system("RetClean", hospital).to_dict()
        second = runner.run_system("RetClean", hospital).to_dict()
        first.pop("runtime_seconds")
        second.pop("runtime_seconds")
        assert first == second
