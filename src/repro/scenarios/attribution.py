"""Attribution scorecard: join cell lineage against scenario ground truth.

Scenario generation (:mod:`repro.scenarios.spec`) knows exactly which cells
it corrupted; cell lineage (:mod:`repro.obs.lineage`) knows exactly which
cells the cleaner touched and which operator touched them last.  Joining
the two answers the question the aggregate precision/recall numbers cannot:
*which operator* fixed the injected errors, which operator rewrote cells it
should have left alone, and what slipped through untouched.

Per scenario, every ground-truth corrupted cell and every lineage-changed
cell lands in exactly one bucket:

``true_fix``
    a corrupted cell the cleaner restored to the ground-truth clean value
    (strict comparison), credited to the operator that last edited it;
``false_fix``
    a cell the cleaner changed that either was never corrupted or was
    rewritten to something other than the clean value;
``missed``
    a corrupted cell with no net lineage change whose row also survived —
    nobody even tried (cells on removed rows are counted separately).

Row removals get the same treatment against the scenario's injected
duplicate rows: ``true_remove`` / ``false_remove`` / ``missed_duplicates``.

The scorecard also reconciles against the evaluation path: the
:class:`~repro.evaluation.runner.ExperimentRunner`'s CocoonSystem reports
``detected``/``repaired`` as the cleaner's canonical cell repairs, and every
one of those (on a surviving row) must be explained by a lineage record —
``unexplained_repairs`` is empty whenever the lineage contract holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.pipeline import CocoonCleaner
from repro.core.result import CleaningResult
from repro.obs.lineage import values_strictly_differ
from repro.scenarios.catalog import get_scenario
from repro.scenarios.spec import GeneratedScenario, ScenarioSpec, generate

#: The per-operator counter keys, in reporting order.
CELL_BUCKETS = ("true_fix", "false_fix")
ROW_BUCKETS = ("true_remove", "false_remove")


def _empty_entry() -> Dict[str, int]:
    return {bucket: 0 for bucket in CELL_BUCKETS + ROW_BUCKETS}


@dataclass
class AttributionScorecard:
    """Per-operator attribution for one scenario run."""

    scenario: str
    #: operator → {true_fix, false_fix, true_remove, false_remove}.
    per_operator: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Corrupted cells nobody touched (row survived).
    missed: int = 0
    #: Corrupted cells whose row the cleaner removed instead of repairing.
    removed_corrupted: int = 0
    #: Injected duplicate rows that survived cleaning.
    missed_duplicates: int = 0
    #: Ground-truth sizes, for rates.
    corrupted_cells: int = 0
    duplicate_rows: int = 0
    #: Reconciliation with the evaluation path (see module docstring).
    runner_detected: int = 0
    runner_repaired: int = 0
    lineage_net_cells: int = 0
    unexplained_repairs: List[Tuple[int, str]] = field(default_factory=list)

    def _bucket_total(self, bucket: str) -> int:
        return sum(entry[bucket] for entry in self.per_operator.values())

    @property
    def true_fixes(self) -> int:
        return self._bucket_total("true_fix")

    @property
    def false_fixes(self) -> int:
        return self._bucket_total("false_fix")

    @property
    def true_removes(self) -> int:
        return self._bucket_total("true_remove")

    @property
    def false_removes(self) -> int:
        return self._bucket_total("false_remove")

    @property
    def reconciled(self) -> bool:
        """Every canonical repair on a surviving row has a lineage explanation."""
        return not self.unexplained_repairs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "per_operator": {
                op: dict(entry) for op, entry in sorted(self.per_operator.items())
            },
            "totals": {
                "true_fix": self.true_fixes,
                "false_fix": self.false_fixes,
                "missed": self.missed,
                "removed_corrupted": self.removed_corrupted,
                "true_remove": self.true_removes,
                "false_remove": self.false_removes,
                "missed_duplicates": self.missed_duplicates,
            },
            "ground_truth": {
                "corrupted_cells": self.corrupted_cells,
                "duplicate_rows": self.duplicate_rows,
            },
            "reconciliation": {
                "runner_detected": self.runner_detected,
                "runner_repaired": self.runner_repaired,
                "lineage_net_cells": self.lineage_net_cells,
                "unexplained_repairs": [list(cell) for cell in self.unexplained_repairs],
                "reconciled": self.reconciled,
            },
        }


def score_result(
    generated: GeneratedScenario, result: CleaningResult
) -> AttributionScorecard:
    """Score one finished cleaning run against its scenario's ground truth."""
    recorder = result.lineage
    if recorder is None:
        raise ValueError(
            "cleaning result carries no lineage recorder; run through "
            "CocoonCleaner from this version of the pipeline"
        )
    card = AttributionScorecard(
        scenario=generated.spec.name,
        corrupted_cells=len(generated.cell_diff),
        duplicate_rows=len(generated.duplicate_rows),
    )

    changed = recorder.changed_cells()
    editor = recorder.last_editor()
    removed = recorder.removed_row_ids()
    card.lineage_net_cells = len(changed)

    def entry(operator: str) -> Dict[str, int]:
        return card.per_operator.setdefault(operator, _empty_entry())

    # -- cells: lineage-changed vs ground-truth corrupted -------------------------
    truth = generated.cell_diff  # (row, column) -> (clean_value, dirty_value)
    for cell, (_before, after) in changed.items():
        operator = editor[cell]
        if cell in truth:
            clean_value = truth[cell][0]
            bucket = "true_fix" if not values_strictly_differ(after, clean_value) else "false_fix"
        else:
            bucket = "false_fix"
        entry(operator)[bucket] += 1
    for cell in truth:
        if cell in changed:
            continue
        if cell[0] in removed:
            card.removed_corrupted += 1
        else:
            card.missed += 1

    # -- rows: lineage removals vs injected duplicates ----------------------------
    duplicates = set(generated.duplicate_rows)
    remover: Dict[int, str] = {
        record["row_id"]: record["operator"]
        for record in recorder.records
        if record["event"] == "remove"
    }
    for row_id, operator in remover.items():
        bucket = "true_remove" if row_id in duplicates else "false_remove"
        entry(operator)[bucket] += 1
    card.missed_duplicates = sum(1 for row in duplicates if row not in removed)

    # -- reconciliation with the evaluation path ----------------------------------
    # The ExperimentRunner's CocoonSystem reports detected/repaired straight
    # from repaired_cells(); reproduce that join here and demand that every
    # canonical repair on a surviving row carries a lineage explanation.
    repaired = result.repaired_cells()
    card.runner_detected = len(repaired)
    card.runner_repaired = len(repaired)
    card.unexplained_repairs = sorted(
        cell for cell in repaired if cell[0] not in removed and cell not in changed
    )
    return card


def score_scenario(
    spec: Union[str, ScenarioSpec], result: Optional[CleaningResult] = None
) -> AttributionScorecard:
    """Generate ``spec``, clean its dirty table (unless ``result`` is supplied
    by the caller), and score the run."""
    if isinstance(spec, str):
        spec = get_scenario(spec)
    generated = generate(spec)
    if result is None:
        result = CocoonCleaner().clean(generated.dataset.dirty)
    return score_result(generated, result)


def render_scorecard(card: AttributionScorecard) -> str:
    """Human-readable scorecard (the ``scorecard`` CLI command's output)."""
    lines = [
        f"{card.scenario}: {card.corrupted_cells} corrupted cells, "
        f"{card.duplicate_rows} duplicate rows injected"
    ]
    lines.append(
        f"  cells: {card.true_fixes} true fixes, {card.false_fixes} false fixes, "
        f"{card.missed} missed, {card.removed_corrupted} resolved by row removal"
    )
    if card.duplicate_rows or card.true_removes or card.false_removes:
        lines.append(
            f"  rows:  {card.true_removes} true removals, "
            f"{card.false_removes} false removals, "
            f"{card.missed_duplicates} duplicates kept"
        )
    if card.per_operator:
        width = max(len(op) for op in card.per_operator)
        header = f"  {'operator'.ljust(width)}  {'true':>5}  {'false':>5}  {'t-rm':>5}  {'f-rm':>5}"
        lines.append(header)
        for op in sorted(card.per_operator):
            e = card.per_operator[op]
            lines.append(
                f"  {op.ljust(width)}  {e['true_fix']:>5}  {e['false_fix']:>5}  "
                f"{e['true_remove']:>5}  {e['false_remove']:>5}"
            )
    status = "reconciled" if card.reconciled else (
        f"UNRECONCILED ({len(card.unexplained_repairs)} repairs without lineage)"
    )
    lines.append(
        f"  runner: detected={card.runner_detected} repaired={card.runner_repaired} "
        f"lineage net cells={card.lineage_net_cells} [{status}]"
    )
    return "\n".join(lines)
