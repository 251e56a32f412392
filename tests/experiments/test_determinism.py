"""Parallel grids must be byte-identical to sequential grids.

The engine's determinism argument (see ``repro/experiments/matrix.py``):
jobs are independent deterministic computations that share no state: each
Cocoon job cleans with its own simulated model.
These tests check the conclusion empirically — the ``--workers 4`` grid
produces exactly the deterministic fields the ``--workers 1`` grid does,
repeated three times to give thread interleavings a chance to differ.
"""

from __future__ import annotations

import pytest

from repro.experiments.matrix import ExperimentMatrix, canonical_json
from repro.experiments.table1 import run_table1
from repro.experiments.table3 import run_table3

SCALE = 0.04
SEED = 5
DATASETS = ["hospital", "flights"]
REPEATS = 3


def _grid(workers: int) -> str:
    run = ExperimentMatrix(
        datasets=DATASETS, seed=SEED, scale=SCALE, workers=workers
    ).run()
    return canonical_json(run.golden_payload())


@pytest.fixture(scope="module")
def sequential_payload() -> str:
    return _grid(workers=1)


class TestParallelDeterminism:
    @pytest.mark.parametrize("attempt", range(REPEATS))
    def test_workers4_matches_sequential(self, sequential_payload, attempt):
        assert _grid(workers=4) == sequential_payload

    def test_worker_count_does_not_leak_into_the_payload(self, sequential_payload):
        assert _grid(workers=2) == sequential_payload


class TestMatrixMatchesLegacySequentialRunners:
    """The engine (with repair dedup) must score exactly
    what the plain sequential ``run_table1``/``run_table3`` loops score."""

    @pytest.fixture(scope="class")
    def run(self):
        return ExperimentMatrix(datasets=DATASETS, seed=SEED, scale=SCALE, workers=4).run()

    @staticmethod
    def _fields(results):
        return [
            (r.system, r.dataset, r.scores.as_row(), r.scores.correct_repairs,
             r.scores.total_repairs, r.scores.total_errors, r.sampled_rows, r.notes)
            for r in results
        ]

    def test_table1_parity(self, run):
        legacy = run_table1(scale=SCALE, seed=SEED, datasets=DATASETS)
        assert self._fields(run.results_for("table1")) == self._fields(legacy)

    def test_table3_parity(self, run):
        legacy = run_table3(scale=SCALE, seed=SEED, datasets=DATASETS)
        assert self._fields(run.results_for("table3")) == self._fields(legacy)
