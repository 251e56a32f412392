"""Common dataset containers and error bookkeeping."""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dataframe.table import Table
from repro.dataframe.schema import is_null
from repro.obs.lineage import values_strictly_differ


class ErrorType(enum.Enum):
    """Error classes tracked by the benchmarks (Table 2 of the paper)."""

    TYPO = "typo"
    FD_VIOLATION = "fd"
    INCONSISTENCY = "inconsistency"
    DMV = "dmv"
    MISPLACEMENT = "misplacement"
    NUMERIC_OUTLIER = "numeric_outlier"
    COLUMN_TYPE = "column_type"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


@dataclass(frozen=True)
class InjectedError:
    """One injected cell error: where it is and what the truth was."""

    row: int
    column: str
    error_type: ErrorType
    clean_value: object
    dirty_value: object


@dataclass
class BenchmarkDataset:
    """A benchmark: dirty table, clean ground truth, and error bookkeeping.

    ``clean`` is the ground truth used for the paper's main evaluation
    (Table 1): it keeps the benchmark's original value representations, so
    neither column-type casts nor DMV-to-NULL conversions count as errors.
    ``extended_clean`` additionally applies the semantically correct types
    and NULLs (Appendix B / Table 3 evaluation).
    """

    name: str
    dirty: Table
    clean: Table
    injected_errors: List[InjectedError] = field(default_factory=list)
    # Columns whose benchmark representation is the "wrong" type semantically,
    # mapped to the target type name (e.g. {"EmergencyService": "BOOLEAN"}).
    type_cast_columns: Dict[str, str] = field(default_factory=dict)
    # Cells recorded as a disguised-missing token in both dirty and clean data;
    # the extended ground truth expects NULL there (Appendix B).
    dmv_cells: List[Tuple[int, str]] = field(default_factory=list)
    # Extended ground truth (casts + DMV → NULL); built lazily by generators.
    extended_clean: Optional[Table] = None
    description: str = ""

    # -- error ground truth ----------------------------------------------------
    def error_cells(self) -> Set[Tuple[int, str]]:
        """Cells whose dirty value differs from the clean ground truth (strict)."""
        cells: Set[Tuple[int, str]] = set()
        for column in self.clean.column_names:
            dirty_values = self.dirty.column(column).values
            clean_values = self.clean.column(column).values
            for i, (d, c) in enumerate(zip(dirty_values, clean_values)):
                if strict_differs(d, c):
                    cells.add((i, column))
        return cells

    def error_census(self) -> Dict[ErrorType, int]:
        """Count injected errors by type; column-type errors count affected non-null cells."""
        census: Counter = Counter()
        for error in self.injected_errors:
            census[error.error_type] += 1
        census[ErrorType.DMV] += len(self.dmv_cells)
        for column in self.type_cast_columns:
            non_null = sum(1 for v in self.dirty.column(column).values if not is_null(v) and str(v).strip() != "")
            census[ErrorType.COLUMN_TYPE] += non_null
        return {etype: count for etype, count in census.items() if count}

    @property
    def shape_label(self) -> str:
        rows, cols = self.dirty.shape
        return f"{rows} x {cols}"

    def summary(self) -> str:
        census = self.error_census()
        parts = ", ".join(f"{etype.value}: {count}" for etype, count in sorted(census.items(), key=lambda p: p[0].value))
        return f"{self.name} ({self.shape_label}) — {parts}"


#: The cell-difference predicate every ground-truth diff is defined over
#: (NULL only equals NULL, everything else compares by ``str``); the scenario
#: generator and the lineage contract use the same function.
strict_differs = values_strictly_differ
