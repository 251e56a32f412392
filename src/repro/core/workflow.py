"""Operator ordering — the decomposition of Figure 1.

The order matters (paper §2.1, closing note): typos must be fixed before
patterns can be detected, patterns must be standardised before values can be
cast, and only a cast column can be checked for numeric outliers.  Table-level
issues (functional dependencies, duplication, uniqueness) run last, on cleaned
column values.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.operators import (
    CleaningOperator,
    ColumnTypeOperator,
    ColumnUniquenessOperator,
    DisguisedMissingValueOperator,
    DuplicationOperator,
    FunctionalDependencyOperator,
    NumericOutlierOperator,
    PatternOutlierOperator,
    StringOutlierOperator,
)

#: Canonical order of issue types in a Cocoon run.
ISSUE_ORDER: List[str] = [
    "string_outliers",
    "pattern_outliers",
    "disguised_missing_value",
    "column_type",
    "numeric_outliers",
    "functional_dependency",
    "duplication",
    "column_uniqueness",
]

#: Issues judged per column, independent of other rows' relationships.
COLUMN_LEVEL_ISSUES: List[str] = [
    "string_outliers",
    "pattern_outliers",
    "disguised_missing_value",
    "column_type",
    "numeric_outliers",
]

#: Issues that reason across whole rows or row pairs (functional dependencies,
#: duplicate rows, key uniqueness).
TABLE_LEVEL_ISSUES: List[str] = [
    "functional_dependency",
    "duplication",
    "column_uniqueness",
]

_OPERATOR_CLASSES = {
    "string_outliers": StringOutlierOperator,
    "pattern_outliers": PatternOutlierOperator,
    "disguised_missing_value": DisguisedMissingValueOperator,
    "functional_dependency": FunctionalDependencyOperator,
    "column_type": ColumnTypeOperator,
    "numeric_outliers": NumericOutlierOperator,
    "duplication": DuplicationOperator,
    "column_uniqueness": ColumnUniquenessOperator,
}


def default_operators(enabled_issues: Optional[Sequence[str]] = None) -> List[CleaningOperator]:
    """Instantiate the operators in canonical order, optionally filtered."""
    issues = list(enabled_issues) if enabled_issues is not None else ISSUE_ORDER
    unknown = [i for i in issues if i not in _OPERATOR_CLASSES]
    if unknown:
        raise ValueError(f"Unknown issue types: {unknown}; valid issue types are {ISSUE_ORDER}")
    return [_OPERATOR_CLASSES[issue]() for issue in ISSUE_ORDER if issue in issues]
