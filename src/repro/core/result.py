"""Result objects produced by the cleaning pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.dataframe.table import Table

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.core.plan import PlanStep


@dataclass(frozen=True)
class CellRepair:
    """One repaired cell, identified by the original row id and column name."""

    row_id: int
    column: str
    old_value: Any
    new_value: Any
    issue_type: str = ""
    reason: str = ""

    @property
    def key(self) -> tuple:
        return (self.row_id, self.column)


@dataclass
class DetectionFinding:
    """Outcome of statistical + semantic detection for one operator target."""

    issue_type: str
    target: str                      # column name, FD "a -> b", or table name
    statistical_evidence: str
    detected: bool
    llm_reasoning: str = ""
    llm_summary: str = ""


@dataclass
class OperatorResult:
    """Everything one operator produced for one target."""

    issue_type: str
    target: str
    finding: Optional[DetectionFinding] = None
    repairs: List[CellRepair] = field(default_factory=list)
    removed_row_ids: List[int] = field(default_factory=list)
    sql: Optional[str] = None
    skipped_reason: Optional[str] = None
    llm_calls: int = 0
    # The applied decision (repro.core.plan) that ``sql`` executed; None for
    # skipped/rejected results, which have nothing to replay.
    step: Optional["PlanStep"] = None

    @property
    def applied(self) -> bool:
        return self.step is not None


@dataclass
class CleaningResult:
    """The full outcome of a Cocoon cleaning run."""

    table_name: str
    dirty_table: Table
    cleaned_table: Table
    operator_results: List[OperatorResult] = field(default_factory=list)
    sql_script: str = ""
    llm_calls: int = 0
    # Name the table was registered under in the cleaning database; the
    # recorded SQL references it, so plan replay needs it (repro.core.plan).
    base_table: str = ""
    # Cell-level audit trail of the run (repro.obs.lineage.LineageRecorder):
    # one record per strictly-changed cell and per removed row, each tagged
    # with operator, plan-step id, decision payload and LLM provenance.
    lineage: Optional[Any] = None

    @property
    def repairs(self) -> List[CellRepair]:
        """All cell repairs, deduplicated so later operators win for the same cell."""
        by_cell: Dict[tuple, CellRepair] = {}
        first_old: Dict[tuple, Any] = {}
        for result in self.operator_results:
            for repair in result.repairs:
                if repair.key not in first_old:
                    first_old[repair.key] = repair.old_value
                by_cell[repair.key] = CellRepair(
                    row_id=repair.row_id,
                    column=repair.column,
                    old_value=first_old[repair.key],
                    new_value=repair.new_value,
                    issue_type=repair.issue_type,
                    reason=repair.reason,
                )
        return list(by_cell.values())

    @property
    def removed_row_ids(self) -> List[int]:
        removed: List[int] = []
        for result in self.operator_results:
            removed.extend(result.removed_row_ids)
        return sorted(set(removed))

    def repairs_by_issue(self) -> Dict[str, List[CellRepair]]:
        grouped: Dict[str, List[CellRepair]] = {}
        for result in self.operator_results:
            grouped.setdefault(result.issue_type, []).extend(result.repairs)
        return grouped

    def repaired_cells(self) -> Dict[tuple, Any]:
        """Mapping of (row_id, column) → final repaired value."""
        return {repair.key: repair.new_value for repair in self.repairs}

    def summary_text(self) -> str:
        lines = [f"Cleaning result for {self.table_name}:"]
        for issue, repairs in sorted(self.repairs_by_issue().items()):
            lines.append(f"  {issue}: {len(repairs)} cell repairs")
        if self.removed_row_ids:
            lines.append(f"  removed rows: {len(self.removed_row_ids)}")
        lines.append(f"  LLM calls: {self.llm_calls}")
        return "\n".join(lines)
