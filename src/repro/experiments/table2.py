"""Table 2: distribution of error types across benchmarks (Hospital, Movies)."""

from __future__ import annotations

from typing import Dict

from repro.datasets.base import BenchmarkDataset, ErrorType

#: Paper-reported census for reference (dataset → error type → count).
PAPER_TABLE2: Dict[str, Dict[str, int]] = {
    "hospital": {"size": "1000 x 19", "typo": 213, "fd": 331, "column_type": 3000, "dmv": 227, "misplacement": 0},
    "movies": {"size": "7390 x 17", "typo": 184, "fd": 0, "column_type": 14433, "dmv": 131, "misplacement": 938},
}

_COLUMN_ORDER = [ErrorType.TYPO, ErrorType.FD_VIOLATION, ErrorType.COLUMN_TYPE,
                 ErrorType.INCONSISTENCY, ErrorType.DMV, ErrorType.MISPLACEMENT]


def census_of(dataset: BenchmarkDataset) -> Dict[str, int]:
    """Census of an already-built dataset keyed by error-type name."""
    census = dataset.error_census()
    return {etype.value: census.get(etype, 0) for etype in _COLUMN_ORDER}


def format_table2(rows: Dict[str, Dict[str, object]], include_paper: bool = True) -> str:
    headers = ["Dataset", "Size", "Typo", "FD", "ColumnType", "Inconsistency", "DMV", "Misplacement"]
    lines = ["Table 2: distribution of error types across benchmarks",
             "".join(h.ljust(14) for h in headers)]
    for name, row in rows.items():
        lines.append(
            name.ljust(14) + str(row["size"]).ljust(14)
            + "".join(str(row.get(etype.value, 0)).ljust(14) for etype in _COLUMN_ORDER)
        )
    if include_paper:
        lines.append("")
        lines.append("Paper-reported counts (original benchmarks):")
        for name, row in PAPER_TABLE2.items():
            lines.append(
                name.ljust(14) + str(row["size"]).ljust(14)
                + "".join(str(row.get(key, 0)).ljust(14) for key in ("typo", "fd", "column_type", "", "dmv", "misplacement"))
            )
    return "\n".join(lines)
