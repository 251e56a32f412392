"""The experiment-matrix engine: grid building, dedup, resume, accounting."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import dataset_names
from repro.experiments.matrix import (
    CENSUS_SYSTEM,
    CellResult,
    CellSpec,
    ExperimentMatrix,
    MatrixJobError,
    ResultsStore,
    UnknownNameError,
    build_grid,
    canonical_json,
    diff_golden,
    golden_payload,
    validate_names,
)

SCALE = 0.04
SEED = 11


class TestGridBuilding:
    def test_full_grid_shape(self):
        cells = build_grid(seed=0, scale=1.0)
        # table1: 5 datasets x 5 systems; table2: 2 census cells; table3: 2 x 5.
        assert len(cells) == 25 + 2 + 10
        assert sum(1 for c in cells if c.table == "table2") == 2
        assert all(c.system == CENSUS_SYSTEM for c in cells if c.table == "table2")

    def test_tables23_default_to_paper_datasets(self):
        cells = build_grid(seed=0, scale=1.0)
        assert {c.dataset for c in cells if c.table == "table2"} == {"hospital", "movies"}
        assert {c.dataset for c in cells if c.table == "table3"} == {"hospital", "movies"}

    def test_explicit_datasets_are_honoured_verbatim_for_every_table(self):
        # A requested benchmark is never silently dropped, even for the
        # tables whose *default* is the paper pair.
        cells = build_grid(datasets=["beers"], seed=0, scale=1.0)
        assert {c.table for c in cells} == {"table1", "table2", "table3"}
        assert {c.dataset for c in cells} == {"beers"}

    def test_cell_ids_are_unique_and_scoped_by_seed_and_scale(self):
        a = CellSpec("table1", "hospital", "Cocoon", seed=0, scale=0.1)
        b = CellSpec("table1", "hospital", "Cocoon", seed=1, scale=0.1)
        c = CellSpec("table1", "hospital", "Cocoon", seed=0, scale=0.2)
        assert len({a.cell_id, b.cell_id, c.cell_id}) == 3
        cells = build_grid(seed=0, scale=1.0)
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_table1_and_table3_share_repair_keys(self):
        one = CellSpec("table1", "hospital", "Cocoon", 0, 0.1)
        three = CellSpec("table3", "hospital", "Cocoon", 0, 0.1)
        assert one.repair_key == three.repair_key
        assert one.cell_id != three.cell_id

    def test_unknown_names_raise_with_choices(self):
        with pytest.raises(UnknownNameError) as excinfo:
            build_grid(datasets=["hospitals"])
        assert "hospitals" in str(excinfo.value)
        for valid in dataset_names():
            assert valid in str(excinfo.value)
        with pytest.raises(UnknownNameError):
            build_grid(systems=["GPT"])
        with pytest.raises(UnknownNameError):
            build_grid(tables=["table9"])

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale must be a finite number > 0"):
            ExperimentMatrix(tables=["table2"], datasets=["hospital"], scale=scale)

    def test_validate_names_passthrough(self):
        assert validate_names("dataset", None, ["a", "b"]) == ["a", "b"]
        assert validate_names("dataset", ["b"], ["a", "b"]) == ["b"]


class TestMatrixRun:
    @pytest.fixture(scope="class")
    def run(self):
        matrix = ExperimentMatrix(
            datasets=["hospital"], seed=SEED, scale=SCALE, workers=2
        )
        return matrix.run()

    def test_every_cell_completes(self, run):
        assert run.stats.cells_total == 5 + 1 + 5  # table1 + census + table3
        assert run.stats.cells_run == run.stats.cells_total
        assert run.stats.cells_resumed == 0
        assert [c.cell_id for c in run.cells] == [
            s.cell_id for s in build_grid(datasets=["hospital"], seed=SEED, scale=SCALE)
        ]

    def test_repair_dedup_groups_table1_and_table3(self, run):
        # 5 systems on hospital + 1 census job: the table3 cells piggyback.
        assert run.stats.repair_groups == 6

    def test_per_cell_accounting(self, run):
        cocoon = next(
            c for c in run.cells if c.system == "Cocoon" and c.table == "table1"
        )
        assert cocoon.deterministic["llm_calls"] > 0
        assert cocoon.deterministic["detected"] > 0
        assert cocoon.deterministic["repaired"] > 0
        assert cocoon.timing["runtime_seconds"] > 0
        assert run.stats.llm_calls >= cocoon.deterministic["llm_calls"]
        assert run.stats.job_seconds_total > 0
        assert run.stats.wall_seconds > 0

    def test_table3_scores_differ_from_table1_on_shared_repair(self, run):
        one = next(c for c in run.cells if c.system == "Cocoon" and c.table == "table1")
        three = next(c for c in run.cells if c.system == "Cocoon" and c.table == "table3")
        # Same repair, different conventions: the error denominators differ.
        assert one.deterministic["total_errors"] != three.deterministic["total_errors"]

    def test_as_system_result_roundtrip(self, run):
        results = run.results_for("table1")
        assert [r.system for r in results] == [
            "HoloClean", "Raha+Baran", "CleanAgent", "RetClean", "Cocoon"
        ]
        census = next(c for c in run.cells if c.table == "table2")
        assert census.as_system_result() is None
        assert census.deterministic["column_type"] > 0

    def test_golden_payload_has_no_timing(self, run):
        payload = run.golden_payload()
        text = canonical_json(payload)
        assert "runtime_seconds" not in text
        assert "job_seconds" not in text
        assert "wall" not in text
        assert set(payload["cells"]) == {c.cell_id for c in run.cells}


class TestResume:
    def test_interrupted_grid_resumes_from_store(self, tmp_path):
        path = tmp_path / "results.json"
        first = ExperimentMatrix(
            tables=["table1"], datasets=["hospital"], systems=["CleanAgent", "RetClean"],
            seed=SEED, scale=SCALE, results_path=path,
        ).run()
        assert first.stats.cells_run == 2
        second = ExperimentMatrix(
            tables=["table1"], datasets=["hospital"],
            systems=["CleanAgent", "RetClean", "HoloClean"],
            seed=SEED, scale=SCALE, results_path=path,
        ).run()
        assert second.stats.cells_resumed == 2
        assert second.stats.cells_run == 1
        resumed = [c for c in second.cells if c.resumed]
        assert {c.system for c in resumed} == {"CleanAgent", "RetClean"}
        # Resumed deterministic payloads are byte-identical to the originals.
        by_id = {c.cell_id: c for c in first.cells}
        for cell in resumed:
            assert cell.deterministic == by_id[cell.cell_id].deterministic

    def test_no_resume_recomputes(self, tmp_path):
        path = tmp_path / "results.json"
        config = dict(tables=["table1"], datasets=["hospital"], systems=["RetClean"],
                      seed=SEED, scale=SCALE, results_path=path)
        ExperimentMatrix(**config).run()
        rerun = ExperimentMatrix(resume=False, **config).run()
        assert rerun.stats.cells_resumed == 0
        assert rerun.stats.cells_run == 1

    def test_store_survives_and_orders_cells(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultsStore(path)
        store.configure({"seed": 1})
        store.record(CellResult("table1", "hospital", "Cocoon", 1, 0.1, {"f1": 0.5}))
        store.record(CellResult("table1", "beers", "Cocoon", 1, 0.1, {"f1": 0.25}))
        document = json.loads(path.read_text())
        assert document["schema_version"] == 1
        assert list(document["cells"]) == sorted(document["cells"])
        reloaded = ResultsStore(path)
        assert len(reloaded) == 2
        assert reloaded.get("table1/hospital/Cocoon/seed=1/scale=0.1")["deterministic"] == {"f1": 0.5}


class TestFailuresAndDiff:
    def test_failing_cell_raises_matrix_job_error(self, monkeypatch):
        matrix = ExperimentMatrix(
            tables=["table1"], datasets=["hospital"], systems=["RetClean"],
            seed=SEED, scale=SCALE,
        )

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(
            "repro.experiments.matrix.load_dataset", boom
        )
        with pytest.raises(MatrixJobError) as excinfo:
            matrix.run()
        assert "synthetic failure" in str(excinfo.value)

    def test_interrupt_cancels_jobs_not_yet_started(self, monkeypatch):
        gate, entered = threading.Event(), threading.Event()
        started = []
        executors = []

        def gated_job(self, cells):
            started.append(cells)
            entered.set()
            assert gate.wait(timeout=30), "test gate was never opened"
            return []

        class InterruptedExecutor(ThreadPoolExecutor):
            """Raises KeyboardInterrupt, as Ctrl-C would, while the grid runs."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                executors.append(self)

            def shutdown(self, wait=True, **kwargs):
                if wait and not gate.is_set():
                    assert entered.wait(timeout=30)
                    raise KeyboardInterrupt
                super().shutdown(wait=wait, **kwargs)

        monkeypatch.setattr("repro.experiments.matrix.ThreadPoolExecutor", InterruptedExecutor)
        monkeypatch.setattr(ExperimentMatrix, "_run_job", gated_job)
        matrix = ExperimentMatrix(
            tables=["table1"], datasets=["hospital", "beers", "flights"], systems=["RetClean"],
            seed=SEED, scale=SCALE, workers=1,
        )
        try:
            with pytest.raises(KeyboardInterrupt):
                matrix.run()
        finally:
            gate.set()
        (executor,) = executors
        executor.shutdown(wait=True)
        assert len(started) == 1

    def test_diff_golden_reports_field_level_changes(self):
        cells = [CellResult("table1", "hospital", "Cocoon", 0, 0.1, {"f1": 0.9, "notes": "x"})]
        expected = golden_payload(cells, {"seed": 0})
        changed = [CellResult("table1", "hospital", "Cocoon", 0, 0.1, {"f1": 0.8, "notes": "x"})]
        actual = golden_payload(changed, {"seed": 0})
        differences = diff_golden(expected, actual)
        assert len(differences) == 1
        assert "f1" in differences[0] and "0.9" in differences[0] and "0.8" in differences[0]
        assert diff_golden(expected, expected) == []
        missing = diff_golden(expected, golden_payload([], {"seed": 0}))
        assert any("missing from the run" in line for line in missing)
