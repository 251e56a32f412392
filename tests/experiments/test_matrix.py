"""The experiment-matrix engine: grid building, dedup, accounting."""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.datasets import dataset_names
from repro.experiments.matrix import (
    CENSUS_SYSTEM,
    CellResult,
    CellSpec,
    ExperimentMatrix,
    MatrixJobError,
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

    def test_settable_values_are_the_grid_axes(self):
        # The grid runs sequentially and in memory: no pool size, store or
        # resume switch is settable.
        assert list(inspect.signature(ExperimentMatrix).parameters) == [
            "tables", "datasets", "systems", "seed", "scale"
        ]

    def test_validate_names_passthrough(self):
        assert validate_names("dataset", None, ["a", "b"]) == ["a", "b"]
        assert validate_names("dataset", ["b"], ["a", "b"]) == ["b"]


class TestMatrixRun:
    @pytest.fixture(scope="class")
    def run(self):
        return ExperimentMatrix(datasets=["hospital"], seed=SEED, scale=SCALE).run()

    def test_every_cell_completes(self, run):
        assert run.stats.cells_total == 5 + 1 + 5  # table1 + census + table3
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
        assert run.stats.wall_seconds > 0

    def test_table3_scores_differ_from_table1_on_shared_repair(self, run):
        one = next(c for c in run.cells if c.system == "Cocoon" and c.table == "table1")
        three = next(c for c in run.cells if c.system == "Cocoon" and c.table == "table3")
        # Same repair, different conventions: the error denominators differ.
        assert one.deterministic["total_errors"] != three.deterministic["total_errors"]

    def test_cells_keep_the_result_they_scored(self, run):
        results = run.results_for("table1")
        assert [r.system for r in results] == [
            "HoloClean", "Raha+Baran", "CleanAgent", "RetClean", "Cocoon"
        ]
        for cell in run.cells:
            if cell.table == "table2":
                assert cell.result is None
                assert cell.deterministic["column_type"] > 0
            else:
                record = cell.result.to_dict()
                assert record.pop("runtime_seconds") == cell.timing["runtime_seconds"]
                assert record == cell.deterministic

    def test_golden_payload_has_no_timing(self, run):
        payload = run.golden_payload()
        text = canonical_json(payload)
        assert "runtime_seconds" not in text
        assert "wall" not in text
        assert set(payload["cells"]) == {c.cell_id for c in run.cells}


class TestSequentialRun:
    @pytest.fixture
    def recorded_groups(self, monkeypatch):
        """(thread id, first cell id) of every repair group the matrix runs."""
        calls = []
        run_cells = ExperimentMatrix._run_cells

        def recording(self, cells):
            calls.append((threading.get_ident(), cells[0].cell_id))
            return run_cells(self, cells)

        monkeypatch.setattr(ExperimentMatrix, "_run_cells", recording)
        return calls

    def test_every_repair_group_runs_on_the_calling_thread(self, recorded_groups):
        run = ExperimentMatrix(
            tables=["table1", "table2"], datasets=["hospital"], systems=["CleanAgent", "RetClean"],
            seed=SEED, scale=SCALE,
        ).run()
        assert len(recorded_groups) == run.stats.repair_groups == 3
        assert {thread for thread, _ in recorded_groups} == {threading.get_ident()}

    def test_repair_groups_run_in_grid_order(self, recorded_groups):
        matrix = ExperimentMatrix(
            datasets=["hospital", "beers"], systems=["CleanAgent", "RetClean"],
            seed=SEED, scale=SCALE,
        )
        matrix.run()
        first_cells, seen = [], set()
        for spec in matrix.grid:
            if spec.repair_key not in seen:
                seen.add(spec.repair_key)
                first_cells.append(spec.cell_id)
        assert [cell_id for _, cell_id in recorded_groups] == first_cells


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

    def test_every_failed_group_is_listed(self, monkeypatch):
        from repro.experiments import matrix as matrix_module

        real_load = matrix_module.load_dataset
        loaded = []

        def fail_beers(name, **kwargs):
            loaded.append(name)
            if name == "beers":
                raise RuntimeError(f"synthetic failure on {name}")
            return real_load(name, **kwargs)

        monkeypatch.setattr(matrix_module, "load_dataset", fail_beers)
        matrix = ExperimentMatrix(
            tables=["table1"], datasets=["beers", "hospital"], systems=["CleanAgent", "RetClean"],
            seed=SEED, scale=SCALE,
        )
        with pytest.raises(MatrixJobError) as excinfo:
            matrix.run()
        message = str(excinfo.value)
        assert message.startswith("2 repair group(s) failed")
        assert "table1/beers/CleanAgent" in message and "table1/beers/RetClean" in message
        assert "hospital" not in message
        # A failing group does not stop the groups after it.
        assert loaded == ["beers", "beers", "hospital", "hospital"]

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
