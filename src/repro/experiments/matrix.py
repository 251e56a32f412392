"""The experiment-matrix engine.

The paper's evaluation is a grid: (table × dataset × system) cells, each a
deterministic function of ``(seed, scale)``.  This module runs that grid on
the calling thread, one repair group after another in grid order, with:

* **Repair dedup** — Table 1 and Table 3 score the *same* system run under
  different conventions, so cells sharing a repair unit
  ``(dataset, system, seed, scale)`` form one group that repairs once and
  scores once per table.
* **No shared state between groups** — each Cocoon group cleans with its own
  deterministic :class:`~repro.llm.simulated.SimulatedSemanticLLM`, so a
  cell's scores do not depend on which groups ran before it.
* **Per-cell accounting** — runtime, LLM calls, detected/repaired counts.
* **A golden corpus** — :func:`golden_payload` extracts only the
  deterministic fields (scores, counts, notes — never wall-clock), which
  ``GOLDEN_experiments.json`` pins and tier-1 tests assert exactly.

Every repair is CPU-bound pure Python (the simulated model and the four
baselines), which threads cannot overlap under the GIL, and the whole grid
takes under a minute at paper scale; so it runs on one thread and keeps its
cells in memory until the run is done.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.datasets import dataset_names, load_dataset
from repro.datasets.registry import check_scale
from repro.evaluation.conventions import EvaluationConventions
from repro.evaluation.runner import ExperimentRunner, SystemResult, default_systems
from repro.experiments.table2 import census_of

SCHEMA_VERSION = 1

#: The three quantitative artifacts the grid can regenerate.
TABLE_NAMES = ("table1", "table2", "table3")
#: Tables 2 and 3 only evaluate the two deeply-profiled benchmarks.
TABLE23_DATASETS = ("hospital", "movies")
#: The system name used for Table 2 census cells (no cleaning system runs).
CENSUS_SYSTEM = "census"


class UnknownNameError(ValueError):
    """A dataset / system / table name that the grid does not recognise."""

    def __init__(self, kind: str, unknown: Sequence[str], valid: Sequence[str]):
        self.kind = kind
        self.unknown = list(unknown)
        self.valid = list(valid)
        names = ", ".join(repr(n) for n in self.unknown)
        choices = ", ".join(self.valid)
        super().__init__(f"unknown {kind}{'s' if len(self.unknown) != 1 else ''} {names}; valid choices: {choices}")


def validate_names(kind: str, names: Optional[Sequence[str]], valid: Sequence[str]) -> List[str]:
    """Return ``names`` (or all of ``valid`` when None), rejecting unknowns.

    Unknown names raise :class:`UnknownNameError` instead of being silently
    filtered out — a misspelled ``--datasets hospitals`` must fail loudly,
    not quietly shrink the grid.
    """
    if names is None:
        return list(valid)
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise UnknownNameError(kind, unknown, valid)
    return list(names)


# -- grid ------------------------------------------------------------------------


def make_cell_id(table: str, dataset: str, system: str, seed: int, scale: float) -> str:
    """The key of one cell in the golden corpus and the ``--out`` document."""
    return f"{table}/{dataset}/{system}/seed={seed}/scale={scale:g}"


@dataclass(frozen=True)
class CellSpec:
    """One cell of the experiment grid."""

    table: str
    dataset: str
    system: str
    seed: int
    scale: float

    @property
    def cell_id(self) -> str:
        return make_cell_id(self.table, self.dataset, self.system, self.seed, self.scale)

    @property
    def repair_key(self) -> str:
        """Cells with equal repair keys run the same system on the same data."""
        return f"{self.dataset}/{self.system}/seed={self.seed}/scale={self.scale:g}"


def build_grid(
    tables: Optional[Sequence[str]] = None,
    datasets: Optional[Sequence[str]] = None,
    systems: Optional[Sequence[str]] = None,
    seed: int = 0,
    scale: float = 1.0,
) -> List[CellSpec]:
    """Expand (tables × datasets × systems) into cell specs, in grid order.

    By default Tables 2 and 3 cover their paper datasets (hospital, movies);
    an explicit ``datasets`` list is honoured verbatim for every table — a
    requested benchmark is never silently dropped.  Name validation is strict.
    """
    table_list = validate_names("table", tables, TABLE_NAMES)
    dataset_list = validate_names("dataset", datasets, dataset_names())
    system_list = validate_names("system", systems, list(default_systems()))
    cells: List[CellSpec] = []
    for table in table_list:
        if table == "table1" or datasets is not None:
            table_datasets = dataset_list
        else:
            table_datasets = list(TABLE23_DATASETS)
        for dataset in table_datasets:
            if table == "table2":
                cells.append(CellSpec(table, dataset, CENSUS_SYSTEM, seed, scale))
            else:
                for system in system_list:
                    cells.append(CellSpec(table, dataset, system, seed, scale))
    return cells


# -- results ---------------------------------------------------------------------


@dataclass
class CellResult:
    """One finished cell: a deterministic payload plus timing.

    ``deterministic`` is a pure function of the cell spec (scores, counts,
    notes for system cells; the error census for table2 cells) and is what
    the golden corpus pins.  ``timing`` holds wall-clock measurements and is
    never compared.  ``result`` is the scored :class:`SystemResult` the
    payload was taken from (None for census cells).
    """

    table: str
    dataset: str
    system: str
    seed: int
    scale: float
    deterministic: Dict[str, object]
    timing: Dict[str, float] = field(default_factory=dict)
    result: Optional[SystemResult] = None

    @property
    def cell_id(self) -> str:
        return make_cell_id(self.table, self.dataset, self.system, self.seed, self.scale)

    def to_dict(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "dataset": self.dataset,
            "system": self.system,
            "seed": self.seed,
            "scale": self.scale,
            "deterministic": dict(self.deterministic),
            "timing": dict(self.timing),
        }


def _deterministic_record(result: SystemResult) -> Dict[str, object]:
    record = result.to_dict()
    del record["runtime_seconds"]
    return record


class MatrixJobError(RuntimeError):
    """One or more repair groups failed; the message lists every failure."""


# -- the engine ------------------------------------------------------------------


@dataclass
class MatrixStats:
    """Accounting for one grid run."""

    cells_total: int = 0
    repair_groups: int = 0
    wall_seconds: float = 0.0
    llm_calls: int = 0


@dataclass
class MatrixRun:
    """Everything one grid run produced, in grid order."""

    cells: List[CellResult]
    stats: MatrixStats
    config: Dict[str, object]

    def results_for(self, table: str) -> List[SystemResult]:
        """The cells of one table as :class:`SystemResult` rows (grid order)."""
        return [cell.result for cell in self.cells if cell.table == table and cell.result is not None]

    def table2_rows(self) -> Dict[str, Dict[str, object]]:
        """Census cells in the shape :func:`repro.experiments.table2.format_table2` takes."""
        rows: Dict[str, Dict[str, object]] = {}
        for cell in self.cells:
            if cell.table == "table2":
                rows[cell.dataset] = dict(cell.deterministic)
        return rows

    def golden_payload(self) -> Dict[str, object]:
        return golden_payload(self.cells, self.config)

    def results_document(self) -> Dict[str, object]:
        """The ``--out`` document: every cell, with its timing, keyed by cell id."""
        return {
            "schema_version": SCHEMA_VERSION,
            "config": dict(self.config),
            "cells": {cell.cell_id: cell.to_dict() for cell in self.cells},
        }


class ExperimentMatrix:
    """Runs the (table × dataset × system) grid, one repair group at a time."""

    def __init__(
        self,
        tables: Optional[Sequence[str]] = None,
        datasets: Optional[Sequence[str]] = None,
        systems: Optional[Sequence[str]] = None,
        seed: int = 0,
        scale: float = 1.0,
    ):
        check_scale(scale)
        # The requested (pre-default) names; None means "library default",
        # which build_grid treats differently from an explicit list (tables
        # 2/3 default to the paper pair but honour explicit datasets), so the
        # recorded config must preserve the distinction to round-trip.
        self._requested_tables = None if tables is None else list(tables)
        self._requested_datasets = None if datasets is None else list(datasets)
        self._requested_systems = None if systems is None else list(systems)
        self.seed = seed
        self.scale = scale
        self.grid = build_grid(
            self._requested_tables, self._requested_datasets, self._requested_systems,
            seed=seed, scale=scale,
        )

    # -- public API -------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """The run's identity: requested names (None = library default) + seed/scale.

        Feeding this back into :class:`ExperimentMatrix` reproduces the same
        grid, which is how golden-corpus checks re-run the recorded config.
        """
        return {
            "tables": self._requested_tables,
            "datasets": self._requested_datasets,
            "systems": self._requested_systems,
            "seed": self.seed,
            "scale": self.scale,
        }

    def run(self) -> MatrixRun:
        """Run every repair group in grid order and collect the cells.

        A failing group does not stop the others; once all have run,
        :class:`MatrixJobError` lists every failure.
        """
        started = time.perf_counter()
        groups = _repair_groups(self.grid)
        by_id: Dict[str, CellResult] = {}
        failures: List[str] = []
        llm_calls = 0
        for cells in groups:
            try:
                results = self._run_cells(cells)
            except Exception:
                failures.append(f"cells {[c.cell_id for c in cells]}:\n{traceback.format_exc()}")
                continue
            # One repair per group: cells sharing it carry the same
            # llm_calls, so count each group once rather than per cell.
            llm_calls += int(results[0].deterministic.get("llm_calls", 0))
            for result in results:
                by_id[result.cell_id] = result

        if failures:
            raise MatrixJobError(
                f"{len(failures)} repair group(s) failed:\n" + "\n".join(failures)
            )

        stats = MatrixStats(
            cells_total=len(self.grid),
            repair_groups=len(groups),
            wall_seconds=time.perf_counter() - started,
            llm_calls=llm_calls,
        )
        cells = [by_id[spec.cell_id] for spec in self.grid]
        return MatrixRun(cells=cells, stats=stats, config=self.config_dict())

    # -- execution ---------------------------------------------------------------
    def _run_cells(self, cells: List[CellSpec]) -> List[CellResult]:
        first = cells[0]
        dataset = load_dataset(first.dataset, seed=first.seed, scale=first.scale)
        if first.system == CENSUS_SYSTEM:
            started = time.perf_counter()
            deterministic: Dict[str, object] = {"size": dataset.shape_label}
            deterministic.update(census_of(dataset))
            return [
                CellResult(
                    table=first.table,
                    dataset=first.dataset,
                    system=first.system,
                    seed=first.seed,
                    scale=first.scale,
                    deterministic=deterministic,
                    timing={"runtime_seconds": time.perf_counter() - started},
                )
            ]

        runner = ExperimentRunner(seed=first.seed)
        outcome = runner.run_repair(first.system, dataset)
        results = []
        for spec in cells:
            if spec.table == "table3":
                conventions = EvaluationConventions.paper_extended()
                clean_override = dataset.extended_clean if dataset.extended_clean is not None else dataset.clean
            else:
                conventions = EvaluationConventions.paper_main()
                clean_override = None
            scored = runner.score_repair(outcome, dataset, clean_override=clean_override, conventions=conventions)
            results.append(
                CellResult(
                    table=spec.table,
                    dataset=spec.dataset,
                    system=spec.system,
                    seed=spec.seed,
                    scale=spec.scale,
                    deterministic=_deterministic_record(scored),
                    timing={"runtime_seconds": outcome.runtime_seconds},
                    result=scored,
                )
            )
        return results


def _repair_groups(grid: List[CellSpec]) -> List[List[CellSpec]]:
    """Group cells by repair unit, in order of each group's first cell."""
    groups: Dict[str, List[CellSpec]] = {}
    for spec in grid:
        groups.setdefault(spec.repair_key, []).append(spec)
    return list(groups.values())


# -- golden corpus ----------------------------------------------------------------


def golden_payload(cells: Sequence[CellResult], config: Dict[str, object]) -> Dict[str, object]:
    """The regression-gated view of a run: deterministic fields only."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": dict(config),
        "cells": {cell.cell_id: dict(cell.deterministic) for cell in cells},
    }


def canonical_json(payload: Dict[str, object]) -> str:
    """The byte representation golden comparisons are defined over."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def write_golden(path: Union[str, Path], run: MatrixRun) -> None:
    Path(path).write_text(canonical_json(run.golden_payload()), encoding="utf-8")


def load_golden(path: Union[str, Path]) -> Dict[str, object]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def diff_golden(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """Human-readable differences between two golden payloads (empty = equal)."""
    differences: List[str] = []
    if expected.get("schema_version") != actual.get("schema_version"):
        differences.append(
            f"schema_version: expected {expected.get('schema_version')!r}, got {actual.get('schema_version')!r}"
        )
    if expected.get("config") != actual.get("config"):
        differences.append(f"config: expected {expected.get('config')!r}, got {actual.get('config')!r}")
    expected_cells: Dict[str, Dict[str, object]] = expected.get("cells", {})
    actual_cells: Dict[str, Dict[str, object]] = actual.get("cells", {})
    for cell_id in sorted(set(expected_cells) | set(actual_cells)):
        if cell_id not in actual_cells:
            differences.append(f"{cell_id}: missing from the run")
            continue
        if cell_id not in expected_cells:
            differences.append(f"{cell_id}: not in the golden corpus")
            continue
        before, after = expected_cells[cell_id], actual_cells[cell_id]
        if before == after:
            continue
        for key in sorted(set(before) | set(after)):
            if before.get(key) != after.get(key):
                differences.append(
                    f"{cell_id}: {key} expected {before.get(key)!r}, got {after.get(key)!r}"
                )
    return differences
