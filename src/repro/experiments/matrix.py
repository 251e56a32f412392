"""The parallel experiment-matrix engine.

The paper's evaluation is a grid: (table × dataset × system) cells, each a
deterministic function of ``(seed, scale)``.  This module turns that grid
into jobs run on a :class:`~concurrent.futures.ThreadPoolExecutor`, with:

* **Repair dedup** — Table 1 and Table 3 score the *same* system run under
  different conventions, so cells sharing a repair unit
  ``(dataset, system, seed, scale)`` are grouped into one job that repairs
  once and scores once per table.
* **Longest jobs first** — jobs are submitted in order of a row-count cost
  hint (a stable sort, so equal costs keep grid order), and the executor
  starts them in submission order, so the long poles never start last.
* **A shared prompt cache** — all Cocoon cells share one thread-safe
  :class:`~repro.llm.cache.PromptCacheStore`, namespaced per repair unit.
  The namespace is what keeps the parallel grid byte-identical to the
  sequential grid: the simulated LLM is stateful within one cleaning run, so
  an un-namespaced cache hit from a *different* unit's coincidentally equal
  prompt would make responses depend on execution order.  Within a
  namespace there is exactly one job per run (dedup), and across runs a
  persisted cache replays the identical deterministic responses.
* **An incremental results store** — every finished cell is written to a
  JSON document (atomic tmp + ``os.replace``); re-running against the same
  store resumes an interrupted grid, skipping completed cells.
* **Per-cell accounting** — runtime, LLM calls, detected/repaired counts.
* **A golden corpus** — :func:`golden_payload` extracts only the
  deterministic fields (scores, counts, notes — never wall-clock), which
  ``GOLDEN_experiments.json`` pins and tier-1 tests assert exactly.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core import CleaningConfig
from repro.dataframe.io import atomic_write_text
from repro.datasets import dataset_names, load_dataset
from repro.evaluation.conventions import EvaluationConventions
from repro.evaluation.runner import (
    CocoonSystem,
    ExperimentRunner,
    SystemResult,
    default_systems,
)
from repro.experiments.table2 import census_of
from repro.llm.base import LLMClient
from repro.llm.cache import PromptCacheStore, cached_client
from repro.llm.simulated import SimulatedSemanticLLM

SCHEMA_VERSION = 1

#: The three quantitative artifacts the grid can regenerate.
TABLE_NAMES = ("table1", "table2", "table3")
#: Tables 2 and 3 only evaluate the two deeply-profiled benchmarks.
TABLE23_DATASETS = ("hospital", "movies")
#: The system name used for Table 2 census cells (no cleaning system runs).
CENSUS_SYSTEM = "census"

#: Paper-scale row counts, used only to schedule long jobs first.
_COST_HINT = {"hospital": 1000, "flights": 2400, "beers": 2410, "rayyan": 1000, "movies": 7390}


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
    """The store/golden key of one cell; resume lookups depend on its stability."""
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
    never compared.
    """

    table: str
    dataset: str
    system: str
    seed: int
    scale: float
    deterministic: Dict[str, object]
    timing: Dict[str, float] = field(default_factory=dict)
    #: True when the cell was loaded from the results store (resume path).
    resumed: bool = False

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

    @classmethod
    def from_dict(cls, data: Dict[str, object], resumed: bool = False) -> "CellResult":
        return cls(
            table=str(data["table"]),
            dataset=str(data["dataset"]),
            system=str(data["system"]),
            seed=int(data["seed"]),
            scale=float(data["scale"]),
            deterministic=dict(data.get("deterministic", {})),
            timing=dict(data.get("timing", {})),
            resumed=resumed,
        )

    def as_system_result(self) -> Optional[SystemResult]:
        """Rebuild the :class:`SystemResult` (None for census cells)."""
        if self.system == CENSUS_SYSTEM:
            return None
        record = dict(self.deterministic)
        record.setdefault("system", self.system)
        record.setdefault("dataset", self.dataset)
        record["runtime_seconds"] = self.timing.get("runtime_seconds", 0.0)
        return SystemResult.from_dict(record)


def _deterministic_record(result: SystemResult) -> Dict[str, object]:
    record = result.to_dict()
    del record["runtime_seconds"]
    return record


class ResultsStore:
    """Incremental, thread-safe JSON store of finished cells.

    Every :meth:`record` call rewrites the document atomically (temp file +
    ``os.replace``), so an interrupted grid always leaves a loadable store
    behind; re-running with the same path resumes, skipping recorded cells.
    A ``path`` of None keeps the store in memory (no persistence).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        # Serialises writers; the document snapshot is taken inside it so a
        # later flush can never be overwritten by an earlier, staler one
        # (same pattern as PromptCacheStore._persist).
        self._write_lock = threading.Lock()
        self._cells: Dict[str, Dict[str, object]] = {}
        self._config: Dict[str, object] = {}
        if self.path is not None and self.path.exists():
            document = json.loads(self.path.read_text(encoding="utf-8"))
            self._cells = dict(document.get("cells", {}))
            self._config = dict(document.get("config", {}))

    def configure(self, config: Dict[str, object]) -> None:
        with self._lock:
            self._config = dict(config)

    def get(self, cell_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            return self._cells.get(cell_id)

    def record(self, result: CellResult) -> None:
        with self._lock:
            self._cells[result.cell_id] = result.to_dict()
        self._persist()

    def _persist(self) -> None:
        if self.path is None:
            return
        with self._write_lock:
            with self._lock:
                document = {
                    "schema_version": SCHEMA_VERSION,
                    "config": dict(self._config),
                    "cells": {cell_id: self._cells[cell_id] for cell_id in sorted(self._cells)},
                }
            atomic_write_text(self.path, json.dumps(document, indent=1, sort_keys=True) + "\n")

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)


# -- jobs ------------------------------------------------------------------------


class MatrixJobError(RuntimeError):
    """One or more matrix jobs failed; the message lists every failure."""


# -- the engine ------------------------------------------------------------------


@dataclass
class MatrixStats:
    """Accounting for one grid run."""

    cells_total: int = 0
    cells_run: int = 0
    cells_resumed: int = 0
    repair_groups: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    #: Sum of per-job runtimes — what a strictly serial execution would cost.
    job_seconds_total: float = 0.0
    llm_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def speedup_over_serial(self) -> float:
        return self.job_seconds_total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "cells_total": self.cells_total,
            "cells_run": self.cells_run,
            "cells_resumed": self.cells_resumed,
            "repair_groups": self.repair_groups,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "job_seconds_total": self.job_seconds_total,
            "speedup_over_serial": self.speedup_over_serial,
            "llm_calls": self.llm_calls,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


@dataclass
class MatrixRun:
    """Everything one grid run produced, in grid order."""

    cells: List[CellResult]
    stats: MatrixStats
    config: Dict[str, object]

    def results_for(self, table: str) -> List[SystemResult]:
        """The cells of one table as :class:`SystemResult` rows (grid order)."""
        results = []
        for cell in self.cells:
            if cell.table == table:
                result = cell.as_system_result()
                if result is not None:
                    results.append(result)
        return results

    def table2_rows(self) -> Dict[str, Dict[str, object]]:
        """Census cells in the shape :func:`repro.experiments.table2.format_table2` takes."""
        rows: Dict[str, Dict[str, object]] = {}
        for cell in self.cells:
            if cell.table == "table2":
                rows[cell.dataset] = dict(cell.deterministic)
        return rows

    def golden_payload(self) -> Dict[str, object]:
        return golden_payload(self.cells, self.config)


class ExperimentMatrix:
    """Runs the (table × dataset × system) grid on a thread pool.

    ``workers=1`` is the sequential reference; any worker count produces
    byte-identical deterministic fields (see the module docstring for why).
    """

    def __init__(
        self,
        tables: Optional[Sequence[str]] = None,
        datasets: Optional[Sequence[str]] = None,
        systems: Optional[Sequence[str]] = None,
        seed: int = 0,
        scale: float = 1.0,
        workers: int = 1,
        llm_latency: float = 0.0,
        cache_store: Optional[PromptCacheStore] = None,
        cache_path: Optional[Union[str, Path]] = None,
        store: Optional[ResultsStore] = None,
        results_path: Optional[Union[str, Path]] = None,
        resume: bool = True,
        config: Optional[CleaningConfig] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.tables = validate_names("table", tables, TABLE_NAMES)
        self.datasets = validate_names("dataset", datasets, dataset_names())
        self.systems = validate_names("system", systems, list(default_systems()))
        # The requested (pre-default) names; None means "library default",
        # which build_grid treats differently from an explicit list (tables
        # 2/3 default to the paper pair but honour explicit datasets), so the
        # stored config must preserve the distinction to round-trip.
        self._requested_tables = None if tables is None else list(tables)
        self._requested_datasets = None if datasets is None else list(datasets)
        self._requested_systems = None if systems is None else list(systems)
        self.seed = seed
        self.scale = scale
        self.workers = workers
        self.llm_latency = llm_latency
        self.resume = resume
        self.cleaning_config = config
        self.cache = cache_store if cache_store is not None else PromptCacheStore(cache_path, flush_every=64)
        self.store = store if store is not None else ResultsStore(results_path)
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
        """Execute the grid (resuming from the store) and collect the cells."""
        started = time.perf_counter()
        self.store.configure(self.config_dict())

        resumed: Dict[str, CellResult] = {}
        pending: List[CellSpec] = []
        for spec in self.grid:
            recorded = self.store.get(spec.cell_id) if self.resume else None
            if recorded is not None:
                resumed[spec.cell_id] = CellResult.from_dict(recorded, resumed=True)
            else:
                pending.append(spec)

        jobs = _repair_groups(pending)
        job_results: Dict[str, CellResult] = {}
        failures: List[str] = []
        llm_calls = 0
        if jobs:
            executor = ThreadPoolExecutor(
                min(self.workers, len(jobs)), thread_name_prefix="repro-matrix"
            )
            try:
                futures = [executor.submit(self._run_job, cells) for cells in jobs]
                executor.shutdown(wait=True)
            except BaseException:
                # An interrupt (Ctrl-C) drops the jobs not yet started, so the
                # process exits once the running ones finish; the store keeps
                # every cell already recorded for a resumed run.
                executor.shutdown(wait=False, cancel_futures=True)
                raise
            for cells, future in zip(jobs, futures):
                error = future.exception()
                if error is not None:
                    trace = "".join(
                        traceback.format_exception(type(error), error, error.__traceback__)
                    )
                    failures.append(f"cells {[c.cell_id for c in cells]}:\n{trace}")
                    continue
                results = future.result()
                # One repair per job: cells sharing it carry the same
                # llm_calls, so count each job once rather than per cell.
                llm_calls += int(results[0].deterministic.get("llm_calls", 0))
                for result in results:
                    job_results[result.cell_id] = result
        self.cache.flush()

        if failures:
            raise MatrixJobError(
                f"{len(failures)} matrix job(s) failed:\n" + "\n".join(failures)
            )

        cells: List[CellResult] = []
        for spec in self.grid:
            if spec.cell_id in resumed:
                cells.append(resumed[spec.cell_id])
            else:
                cells.append(job_results[spec.cell_id])

        stats = MatrixStats(
            cells_total=len(self.grid),
            cells_run=len(job_results),
            cells_resumed=len(resumed),
            repair_groups=len(jobs),
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
            job_seconds_total=sum(
                result.timing.get("job_seconds", 0.0) for result in job_results.values()
            ),
            llm_calls=llm_calls,
        )
        cache_stats = self.cache.stats()
        stats.cache_hits = int(cache_stats["hits"])
        stats.cache_misses = int(cache_stats["misses"])
        return MatrixRun(cells=cells, stats=stats, config=self.config_dict())

    # -- execution ---------------------------------------------------------------
    def _run_job(self, cells: List[CellSpec]) -> List[CellResult]:
        started = time.perf_counter()
        results = self._run_cells(cells)
        job_seconds = time.perf_counter() - started
        for result in results:
            result.timing["job_seconds"] = job_seconds / len(results)
            self.store.record(result)
        return results

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

        runner = ExperimentRunner(seed=first.seed, systems=self._system_factories(first))
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
                )
            )
        return results

    def _system_factories(self, spec: CellSpec) -> Dict[str, Callable[[], object]]:
        """The default systems, with Cocoon wired to the shared, namespaced cache."""
        factories = default_systems()
        if spec.system == "Cocoon":
            namespace = spec.repair_key
            factories["Cocoon"] = lambda: CocoonSystem(
                llm=self._cocoon_llm(namespace), config=self.cleaning_config
            )
        return factories

    def _cocoon_llm(self, namespace: str) -> LLMClient:
        inner = SimulatedSemanticLLM(latency_seconds=self.llm_latency)
        return cached_client(inner, self.cache, namespace=namespace)


def _repair_groups(pending: List[CellSpec]) -> List[List[CellSpec]]:
    """Group pending cells by repair unit, one job each, longest expected first."""
    groups: Dict[str, List[CellSpec]] = {}
    for spec in pending:
        groups.setdefault(spec.repair_key, []).append(spec)
    return sorted(groups.values(), key=lambda cells: -_cost_hint(cells))


def _cost_hint(cells: List[CellSpec]) -> int:
    first = cells[0]
    cost = _COST_HINT.get(first.dataset, 1000) * len(cells)
    if first.system == "Cocoon":
        cost *= 4  # LLM-bound cells are the long poles of the grid
    return cost


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
