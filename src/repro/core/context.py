"""Configuration and shared state for one cleaning run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.dataframe.table import Table
from repro.llm.base import LLMClient
from repro.profiling.table_profile import TableProfile, profile_table
from repro.sql.database import Database

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.lineage import LineageRecorder

ROW_ID_COLUMN = "_cocoon_row_id"

# Number of frequent values sampled per column for semantic detection (paper: 1000).
SAMPLE_VALUES = 1000
# Minimum entropy score for a functional dependency to be reviewed.  Dirty
# data weakens real dependencies, so the statistical gate is deliberately
# permissive; the semantic review is what rejects spurious candidates.
FD_MIN_SCORE = 0.75
# Maximum distinct values for a text column to be reviewed as categorical
# (very high-cardinality free text is skipped).
MAX_CATEGORICAL_DISTINCT = 2000


@dataclass
class CleaningConfig:
    """Which issue types a cleaning run covers."""

    # The issue types to run (None: all of them, in workflow order).
    enabled_issues: Optional[List[str]] = None

    def issue_enabled(self, issue_type: str) -> bool:
        return self.enabled_issues is None or issue_type in self.enabled_issues


class CleaningContext:
    """Everything operators need: the database, the LLM, profiles and history."""

    def __init__(
        self,
        db: Database,
        llm: LLMClient,
        base_table: str,
        config: Optional[CleaningConfig] = None,
        lineage: Optional["LineageRecorder"] = None,
    ):
        self.db = db
        self.llm = llm
        self.base_table = base_table
        self.config = config or CleaningConfig()
        # Optional cell-level audit trail (repro.obs.lineage); operators record
        # every strict cell change into it when present.
        self.lineage = lineage
        self.current_table_name = base_table
        self._step = 0
        # The profile of ``_profiled``, the table version it was built for.
        self._profile: Optional[TableProfile] = None
        self._profiled: Optional[Table] = None

    # -- table versioning -----------------------------------------------------
    def current_table(self) -> Table:
        return self.db.table(self.current_table_name)

    def next_table_name(self, suffix: str) -> str:
        self._step += 1
        safe_suffix = suffix.lower().replace(" ", "_")
        return f"{self.base_table}_step{self._step}_{safe_suffix}"

    def advance(self, new_table_name: str) -> None:
        """Move to the table version the last executed cleaning statement wrote."""
        self.current_table_name = new_table_name

    # -- profiling --------------------------------------------------------------
    def profile(self) -> TableProfile:
        """Lazy profile of the *current* table version.

        One profile per version, recognised by the identity of the table
        object, so it holds until the table advances.  The next version's
        profile inherits the column profiles of every column the step left
        untouched; all else is computed when first read.
        """
        table = self.current_table()
        if table is not self._profiled:
            profile = profile_table(
                self.data_only_table(),
                max_values_per_column=SAMPLE_VALUES,
                fd_min_score=FD_MIN_SCORE,
            )
            if self._profile is not None:
                profile.inherit(self._profile)
            self._profile, self._profiled = profile, table
        return self._profile

    def data_only_table(self) -> Table:
        """The current table without the internal row-id bookkeeping column."""
        table = self.current_table()
        if ROW_ID_COLUMN in table.column_names:
            return table.drop([ROW_ID_COLUMN])
        return table

    def data_columns(self) -> List[str]:
        return [c for c in self.current_table().column_names if c != ROW_ID_COLUMN]
