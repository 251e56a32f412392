"""Parity oracle for the pattern counts: the per-pattern SQL count queries.

The pattern-outlier operator counts how many values each model-proposed
pattern covers with :func:`repro.profiling.patterns.pattern_counts`.  The
function below is the SQL verification it replaced, its query loop copied
unchanged: one ``COUNT(*)`` per pattern, each excluding the rows an earlier
pattern matched.  ``test_pattern_counts.py`` holds ``pattern_counts`` to it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.dialects import ReproDialect
from repro.sql import Database

REPRO = ReproDialect()


def pattern_counts_sql(db: Database, table_name: str, column: str, patterns: List[str]) -> List[Tuple[str, int]]:
    """Verify candidate patterns with SQL, as the paper prescribes."""
    counts: List[Tuple[str, int]] = []
    matched_clauses: List[str] = []
    col = REPRO.quote_identifier(column)
    for pattern in patterns:
        clause = f"REGEXP_FULL_MATCH({col}, {REPRO.quote_literal(pattern)})"
        exclusion = " AND ".join(f"NOT {c}" for c in matched_clauses)
        where = clause if not matched_clauses else f"{clause} AND {exclusion}"
        try:
            count = db.scalar(
                f"SELECT COUNT(*) FROM {REPRO.quote_identifier(table_name)} WHERE {where}"
            )
        except Exception:
            count = 0
        counts.append((pattern, int(count or 0)))
        matched_clauses.append(clause)
    return counts
