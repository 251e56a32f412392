"""Run a cleaning system on a benchmark and score it.

This module wires together the datasets, the systems (Cocoon and the four
baselines) and the metrics, reproducing the experimental setup of §3.1:

* HoloClean receives the ground-truth denial constraints; on inputs beyond
  its memory budget (Movies) it is evaluated on the first 1000 rows.
* Raha+Baran receives ground-truth feedback on 20 tuples.
* CleanAgent rejects CSV files larger than 2 MB and is likewise evaluated on
  a 1000-row sample of Movies.
* RetClean receives no reference tables (none are available).
* Cocoon runs with the simulated LLM and auto-approved human review, matching
  the paper's "skip HIL and use the LLM provided ground truth" setting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines import (
    CleanAgentSystem,
    CleaningSystem,
    HoloCleanSystem,
    RahaBaranSystem,
    RetCleanSystem,
    SystemContext,
    SystemOutput,
)
from repro.baselines.cleanagent import CleanAgentFileSizeError
from repro.baselines.holoclean.system import HoloCleanMemoryError
from repro.core import CleaningConfig, CocoonCleaner
from repro.datasets.base import BenchmarkDataset
from repro.dataframe.table import Table
from repro.evaluation.conventions import EvaluationConventions
from repro.evaluation.metrics import Scores, evaluate_repairs

Cell = Tuple[int, str]

#: Ground-truth denial constraints (single-attribute FDs) provided to HoloClean,
#: mirroring the constraint files shipped with the original benchmarks.
GROUND_TRUTH_CONSTRAINTS: Dict[str, List[Tuple[str, str]]] = {
    "hospital": [
        ("ProviderNumber", "ZipCode"),
        ("ProviderNumber", "PhoneNumber"),
        ("MeasureCode", "Condition"),
        ("MeasureCode", "MeasureName"),
    ],
    "flights": [
        ("flight", "scheduled_departure"),
        ("flight", "scheduled_arrival"),
        ("flight", "actual_departure"),
        ("flight", "actual_arrival"),
    ],
    "beers": [
        ("brewery_id", "brewery_name"),
    ],
    "rayyan": [
        ("journal_title", "journal_issn"),
        ("journal_title", "journal_abbreviation"),
    ],
    "movies": [
        ("name", "director"),
        ("name", "year"),
    ],
}

#: Number of ground-truth-labelled tuples given to Raha+Baran (paper: 20).
LABELED_TUPLES = 20

#: Simulated memory budget for HoloClean (cells); Movies at paper scale exceeds it.
HOLOCLEAN_MAX_CELLS = 60_000

#: Sample size used when a system cannot handle the full dataset (paper: 1000 rows).
FALLBACK_SAMPLE_ROWS = 1000


@dataclass
class SystemResult:
    """Scores for one system on one benchmark."""

    system: str
    dataset: str
    scores: Scores
    runtime_seconds: float = 0.0
    sampled_rows: Optional[int] = None
    notes: str = ""
    # Raw output accounting (before scoring-time filtering).
    detected: int = 0
    repaired: int = 0
    llm_calls: int = 0

    @property
    def used_sample(self) -> bool:
        return self.sampled_rows is not None

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly record; ``runtime_seconds`` is the only
        non-deterministic field (everything else is a pure function of the
        dataset seed/scale and the system)."""
        return {
            "system": self.system,
            "dataset": self.dataset,
            "precision": self.scores.precision,
            "recall": self.scores.recall,
            "f1": self.scores.f1,
            "correct_repairs": self.scores.correct_repairs,
            "total_repairs": self.scores.total_repairs,
            "total_errors": self.scores.total_errors,
            "detected": self.detected,
            "repaired": self.repaired,
            "llm_calls": self.llm_calls,
            "sampled_rows": self.sampled_rows,
            "notes": self.notes,
            "runtime_seconds": self.runtime_seconds,
        }


@dataclass
class RepairOutcome:
    """Phase one of an experiment cell: what a system did, before scoring.

    The repair phase is independent of the evaluation conventions, so one
    outcome can be scored several ways — the experiment matrix runs the
    (Cocoon, hospital) repair once and scores it for both Table 1 (lenient
    conventions) and Table 3 (strict conventions, extended ground truth).
    """

    system: str
    dataset: str
    output: SystemOutput
    #: The table the system actually repaired (the head sample on fallback).
    dirty: Table
    sampled_rows: Optional[int] = None
    runtime_seconds: float = 0.0


class CocoonSystem(CleaningSystem):
    """Adapter exposing :class:`CocoonCleaner` through the common system interface."""

    name = "Cocoon"

    def __init__(self, config: Optional[CleaningConfig] = None):
        self._config = config

    def repair(self, dirty: Table, context: SystemContext) -> SystemOutput:
        cleaner = CocoonCleaner(config=self._config)
        result = cleaner.clean(dirty)
        return SystemOutput(
            repairs=dict(result.repaired_cells()),
            detected_cells=sorted(result.repaired_cells().keys()),
            notes=f"{result.llm_calls} LLM calls, {len(result.operator_results)} operator runs",
            llm_calls=result.llm_calls,
        )


def default_systems() -> Dict[str, Callable[[], CleaningSystem]]:
    """Factories for the five systems of Table 1, in presentation order."""
    return {
        "HoloClean": lambda: HoloCleanSystem(max_cells=HOLOCLEAN_MAX_CELLS),
        "Raha+Baran": RahaBaranSystem,
        "CleanAgent": CleanAgentSystem,
        "RetClean": RetCleanSystem,
        "Cocoon": CocoonSystem,
    }


class ExperimentRunner:
    """Runs systems over benchmarks under the paper's evaluation conventions."""

    def __init__(
        self,
        conventions: Optional[EvaluationConventions] = None,
        systems: Optional[Dict[str, Callable[[], CleaningSystem]]] = None,
        seed: int = 0,
    ):
        self.conventions = conventions or EvaluationConventions.paper_main()
        self.system_factories = systems or default_systems()
        self.seed = seed

    # -- context construction ----------------------------------------------------
    def build_context(self, dataset: BenchmarkDataset) -> SystemContext:
        constraints = [
            (det, dep)
            for det, dep in GROUND_TRUTH_CONSTRAINTS.get(dataset.name, [])
            if det in dataset.dirty.column_names and dep in dataset.dirty.column_names
        ]
        labeled: Dict[Cell, object] = {}
        step = max(1, dataset.clean.num_rows // LABELED_TUPLES)
        labeled_rows = list(range(0, dataset.clean.num_rows, step))[:LABELED_TUPLES]
        for row in labeled_rows:
            for column in dataset.clean.column_names:
                labeled[(row, column)] = dataset.clean.cell(row, column)
        return SystemContext(denial_constraints=constraints, labeled_cells=labeled, seed=self.seed)

    # -- running -------------------------------------------------------------------
    def run_repair(self, system_name: str, dataset: BenchmarkDataset) -> RepairOutcome:
        """Phase one: run a system on a dataset, without scoring it.

        Handles the paper's fallback convention — systems that cannot handle
        a dataset (memory/file-size limits) are re-run on the first 1000 rows.
        """
        if system_name not in self.system_factories:
            raise KeyError(f"Unknown system {system_name!r}; available: {list(self.system_factories)}")
        system = self.system_factories[system_name]()
        context = self.build_context(dataset)

        dirty = dataset.dirty
        sampled_rows: Optional[int] = None
        start = time.perf_counter()
        try:
            output = system.repair(dirty, context)
        except (HoloCleanMemoryError, CleanAgentFileSizeError) as exc:
            # Paper footnote: systems that cannot handle Movies are benchmarked
            # over the sample of the first 1000 rows.
            sampled_rows = min(FALLBACK_SAMPLE_ROWS, dirty.num_rows)
            dirty = dataset.dirty.head(sampled_rows)
            context = self._restrict_context(context, sampled_rows)
            try:
                output = system.repair(dirty, context)
            except (HoloCleanMemoryError, CleanAgentFileSizeError):
                output = SystemOutput(repairs={}, notes=f"failed even on sample: {exc}")
        runtime = time.perf_counter() - start
        return RepairOutcome(
            system=system_name,
            dataset=dataset.name,
            output=output,
            dirty=dirty,
            sampled_rows=sampled_rows,
            runtime_seconds=runtime,
        )

    def score_repair(
        self,
        outcome: RepairOutcome,
        dataset: BenchmarkDataset,
        clean_override: Optional[Table] = None,
        conventions: Optional[EvaluationConventions] = None,
    ) -> SystemResult:
        """Phase two: score a repair outcome under some conventions.

        ``clean_override`` substitutes the ground truth (used by the Table 3
        evaluation, which scores against the extended clean table);
        ``conventions`` overrides the runner-level default, so one outcome
        can be scored under both the lenient and the strict conventions.
        """
        clean = clean_override if clean_override is not None else dataset.clean
        if outcome.sampled_rows is not None:
            clean = clean.head(outcome.sampled_rows)
        conv = conventions or self.conventions
        scores = evaluate_repairs(outcome.dirty, clean, outcome.output.repairs, conv)
        return SystemResult(
            system=outcome.system,
            dataset=outcome.dataset,
            scores=scores,
            runtime_seconds=outcome.runtime_seconds,
            sampled_rows=outcome.sampled_rows,
            notes=outcome.output.notes,
            detected=len(outcome.output.detected_cells),
            repaired=len(outcome.output.repairs),
            llm_calls=outcome.output.llm_calls,
        )

    def run_system(
        self,
        system_name: str,
        dataset: BenchmarkDataset,
        clean_override: Optional[Table] = None,
    ) -> SystemResult:
        """Run one system on one dataset and score it (repair + score)."""
        outcome = self.run_repair(system_name, dataset)
        return self.score_repair(outcome, dataset, clean_override=clean_override)

    @staticmethod
    def _restrict_context(context: SystemContext, rows: int) -> SystemContext:
        labeled = {cell: value for cell, value in context.labeled_cells.items() if cell[0] < rows}
        return SystemContext(
            denial_constraints=list(context.denial_constraints),
            labeled_cells=labeled,
            reference_tables=list(context.reference_tables),
            seed=context.seed,
        )
