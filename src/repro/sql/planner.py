"""Query planning: a SELECT becomes an explicit pipeline of stage nodes.

:func:`plan_select` turns a parsed :class:`~repro.sql.ast_nodes.Select` into a
:class:`SelectPlan` — the *logical* plan the executor runs, once per query:
scan → filter → qualify → count | project, each stage present only when the
statement asks for it.  ``SelectPlan.describe()`` renders the stage pipeline
for humans and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sql.ast_nodes import CountStar, Expression, FirstPerPartition, Select, SelectItem


# --------------------------------------------------------------------------
# stage nodes
# --------------------------------------------------------------------------
@dataclass
class ScanNode:
    """Read the FROM table."""

    table: str

    @property
    def label(self) -> str:
        return f"Scan({self.table})"


@dataclass
class FilterNode:
    """Apply the WHERE predicate."""

    predicate: Expression

    @property
    def label(self) -> str:
        return "Filter"


@dataclass
class QualifyNode:
    """Keep the first row of each partition (QUALIFY ROW_NUMBER() … = 1)."""

    first: FirstPerPartition

    @property
    def label(self) -> str:
        return f"Qualify(partition_keys={len(self.first.partition_by)})"


@dataclass
class CountNode:
    """``COUNT(*)`` over the rows that reach it."""

    @property
    def label(self) -> str:
        return "Count"


@dataclass
class ProjectNode:
    """Evaluate the select list into output columns."""

    items: List[SelectItem]

    @property
    def label(self) -> str:
        return f"Project(items={len(self.items)})"


@dataclass
class SelectPlan:
    """The planned form of one SELECT, consumed by the executor's pipeline."""

    select: Select
    scan: Optional[ScanNode]
    filter: Optional[FilterNode] = None
    qualify: Optional[QualifyNode] = None
    count: Optional[CountNode] = None
    project: Optional[ProjectNode] = None

    def stages(self) -> List[object]:
        """The stage nodes in execution order (omitting absent stages)."""
        stages = (self.scan, self.filter, self.qualify, self.count, self.project)
        return [stage for stage in stages if stage is not None]

    def describe(self) -> str:
        """Human-readable pipeline, one stage per line (for tests and EXPLAIN)."""
        lines = ["SelectPlan"]
        lines.extend(f"  {i}: {stage.label}" for i, stage in enumerate(self.stages()))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# planning
# --------------------------------------------------------------------------
def plan_select(select: Select) -> SelectPlan:
    """Build the stage-node plan for ``select`` (once per query)."""
    counts = isinstance(select.items[0].expression, CountStar)
    return SelectPlan(
        select=select,
        scan=ScanNode(select.from_table) if select.from_table is not None else None,
        filter=FilterNode(select.where) if select.where is not None else None,
        qualify=QualifyNode(select.qualify) if select.qualify is not None else None,
        count=CountNode() if counts else None,
        project=None if counts else ProjectNode(list(select.items)),
    )
