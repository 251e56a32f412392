"""The golden regression gate: every PR must reproduce the committed corpus.

``GOLDEN_experiments.json`` pins the deterministic fields (scores, counts,
notes — never wall-clock) of the full experiment grid at scale 0.05.  These
tests re-run that grid and assert byte-identical agreement, so a regression
in any operator, baseline, dataset generator or metric shows up as a failing
tier-1 test with a field-level diff.

The sanctioned way to change the corpus (after verifying the drift is an
intended improvement) is::

    python -m repro.experiments matrix --scale 0.05 --golden --refresh
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.matrix import (
    ExperimentMatrix,
    canonical_json,
    diff_golden,
    load_golden,
)

GOLDEN_PATH = Path(__file__).resolve().parents[2] / "GOLDEN_experiments.json"

#: The configuration the corpus is pinned at (None = the library default,
#: i.e. all five datasets for Table 1, the paper pair for Tables 2/3, all
#: five systems).  Refreshing the corpus at a different scale/seed or a
#: restricted grid (accidentally or not) fails this suite, not just CI.
PINNED_CONFIG = {
    "tables": ["table1", "table2", "table3"],
    "datasets": None,
    "systems": None,
    "seed": 0,
    "scale": 0.05,
}


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} is missing; regenerate it with "
        "`python -m repro.experiments matrix --scale 0.05 --golden --refresh`"
    )
    return load_golden(GOLDEN_PATH)


@pytest.fixture(scope="module")
def fresh_run(golden):
    config = golden["config"]
    matrix = ExperimentMatrix(
        tables=config["tables"],
        datasets=config["datasets"],  # None round-trips to the library default
        systems=config["systems"],
        seed=config["seed"],
        scale=config["scale"],
    )
    return matrix.run()


class TestGoldenCorpus:
    def test_committed_config_is_the_pinned_one(self, golden):
        assert golden["config"] == PINNED_CONFIG

    def test_corpus_covers_the_full_grid(self, golden):
        cells = golden["cells"]
        assert len(cells) == 25 + 2 + 10
        assert sum(1 for cell_id in cells if cell_id.startswith("table2/")) == 2

    def test_corpus_contains_no_wall_clock(self, golden):
        text = GOLDEN_PATH.read_text(encoding="utf-8")
        assert "runtime_seconds" not in text

    def test_fresh_run_matches_exactly(self, golden, fresh_run):
        differences = diff_golden(golden, fresh_run.golden_payload())
        assert differences == [], (
            "golden corpus drift:\n  " + "\n  ".join(differences) +
            "\nIf this change is intended, refresh the corpus with "
            "`python -m repro.experiments matrix --scale 0.05 --golden --refresh` "
            "and explain the drift in the PR."
        )

    def test_fresh_run_matches_byte_for_byte(self, golden, fresh_run):
        assert canonical_json(fresh_run.golden_payload()) == canonical_json(golden)

    def test_committed_file_is_canonical_json(self, golden):
        assert GOLDEN_PATH.read_text(encoding="utf-8") == canonical_json(golden)

    def test_paper_ordering_cocoon_wins_where_the_paper_says(self, golden):
        """Coarse sanity on top of exactness: the corpus should still tell the
        paper's story (Cocoon leads on hospital/beers/movies at this scale)."""
        cells = golden["cells"]

        def f1(table, dataset, system):
            return cells[f"{table}/{dataset}/{system}/seed=0/scale=0.05"]["f1"]

        for dataset in ("hospital", "beers", "movies"):
            competitors = ("HoloClean", "CleanAgent", "RetClean")
            assert all(f1("table1", dataset, "Cocoon") > f1("table1", dataset, s) for s in competitors)
        assert f1("table3", "hospital", "Cocoon") > f1("table3", "hospital", "HoloClean")
