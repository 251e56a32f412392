"""The grid is deterministic, and repair dedup scores what separate repairs score.

The matrix repairs each (dataset, system) once and scores that one repair
for both Table 1 (lenient conventions) and Table 3 (strict conventions,
extended ground truth).  The reference here repairs every (dataset, system)
cell on its own with :meth:`ExperimentRunner.run_system`, and every scored
field must agree.

Groups share no state (see ``repro/experiments/matrix.py``), so a cell's
scores must not depend on which groups ran before it: a rerun, a reordered
grid and a grid of one group all score each cell the same.
"""

from __future__ import annotations

import pytest

from repro.datasets import load_dataset
from repro.evaluation.conventions import EvaluationConventions
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.matrix import ExperimentMatrix, canonical_json

SCALE = 0.04
SEED = 5
DATASETS = ["hospital", "flights"]


def _separate_repairs(extended: bool):
    """One repair per (dataset, system) cell, scored as its table scores it."""
    conventions = EvaluationConventions.paper_extended() if extended else None
    runner = ExperimentRunner(conventions=conventions, seed=SEED)
    results = []
    for name in DATASETS:
        dataset = load_dataset(name, seed=SEED, scale=SCALE)
        clean_override = None
        if extended:
            clean_override = dataset.extended_clean if dataset.extended_clean is not None else dataset.clean
        for system in runner.system_factories:
            results.append(runner.run_system(system, dataset, clean_override=clean_override))
    return results


@pytest.fixture(scope="module")
def grid_run():
    return ExperimentMatrix(datasets=DATASETS, seed=SEED, scale=SCALE).run()


class TestGroupsShareNoState:
    def test_a_rerun_is_byte_identical(self, grid_run):
        rerun = ExperimentMatrix(datasets=DATASETS, seed=SEED, scale=SCALE).run()
        assert canonical_json(rerun.golden_payload()) == canonical_json(grid_run.golden_payload())

    def test_reversed_dataset_order_scores_every_cell_the_same(self, grid_run):
        reversed_run = ExperimentMatrix(datasets=DATASETS[::-1], seed=SEED, scale=SCALE).run()
        assert reversed_run.cells[0].dataset == DATASETS[-1]
        assert reversed_run.golden_payload()["cells"] == grid_run.golden_payload()["cells"]

    @pytest.mark.parametrize("system", ["CleanAgent", "Cocoon"])
    def test_a_group_run_alone_scores_as_in_the_full_grid(self, grid_run, system):
        alone = ExperimentMatrix(
            tables=["table1", "table3"], datasets=[DATASETS[-1]], systems=[system],
            seed=SEED, scale=SCALE,
        ).run()
        assert alone.stats.repair_groups == 1
        full = grid_run.golden_payload()["cells"]
        for cell_id, record in alone.golden_payload()["cells"].items():
            assert record == full[cell_id]


class TestDedupMatchesSeparateRepairs:
    @pytest.fixture(scope="class")
    def run(self, grid_run):
        return grid_run

    @staticmethod
    def _fields(results):
        return [
            (r.system, r.dataset, r.scores.as_row(), r.scores.correct_repairs,
             r.scores.total_repairs, r.scores.total_errors, r.sampled_rows, r.notes,
             r.detected, r.repaired, r.llm_calls)
            for r in results
        ]

    def test_table1_parity(self, run):
        assert self._fields(run.results_for("table1")) == self._fields(_separate_repairs(extended=False))

    def test_table3_parity(self, run):
        assert self._fields(run.results_for("table3")) == self._fields(_separate_repairs(extended=True))
