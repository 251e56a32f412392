"""Query planning: a SELECT becomes an explicit pipeline of stage nodes.

:func:`plan_select` turns a parsed :class:`~repro.sql.ast_nodes.Select` into a
:class:`SelectPlan` — the *logical* plan the executor runs.  The plan phase
happens exactly once per query and hoists every decision that used to be
re-derived inside ``Executor._execute_select`` on the fly:

* which stages the query needs (scan → filter → group → window → project →
  qualify → distinct → order → limit), as explicit nodes;
* whether the query aggregates (``GROUP BY`` present, or any aggregate
  function in the select list / ``HAVING``);
* the set of window-function nodes referenced by the select list and
  ``QUALIFY`` (collected once, not per execution phase).

``SelectPlan.describe()`` renders the stage pipeline for humans and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
    UnaryOp,
    WindowFunction,
)
from repro.sql.functions import AGGREGATE_NAMES


# --------------------------------------------------------------------------
# stage nodes
# --------------------------------------------------------------------------
@dataclass
class ScanNode:
    """Materialise one FROM item (named table or derived subquery)."""

    ref: TableRef

    @property
    def label(self) -> str:
        return f"Scan({self.ref.name or (self.ref.alias or 'subquery')})"


@dataclass
class FilterNode:
    """Apply the WHERE predicate."""

    predicate: Expression

    @property
    def label(self) -> str:
        return "Filter"


@dataclass
class GroupNode:
    """GROUP BY / aggregate evaluation (with optional HAVING)."""

    keys: List[Expression]
    having: Optional[Expression]

    @property
    def label(self) -> str:
        return f"Group(keys={len(self.keys)})"


@dataclass
class WindowNode:
    """Evaluate every window function referenced by the query, once."""

    functions: List[WindowFunction]

    @property
    def label(self) -> str:
        return f"Window(functions={len(self.functions)})"


@dataclass
class ProjectNode:
    """Evaluate the select list into output rows."""

    items: List[SelectItem]

    @property
    def label(self) -> str:
        return f"Project(items={len(self.items)})"


@dataclass
class QualifyNode:
    """Filter on window-function results (QUALIFY)."""

    predicate: Expression

    @property
    def label(self) -> str:
        return "Qualify"


@dataclass
class DistinctNode:
    """Drop duplicate output rows (first occurrence wins)."""

    @property
    def label(self) -> str:
        return "Distinct"


@dataclass
class OrderNode:
    """Sort output rows by the ORDER BY items."""

    items: List[OrderItem]

    @property
    def label(self) -> str:
        return f"Order(keys={len(self.items)})"


@dataclass
class LimitNode:
    """OFFSET / LIMIT applied to the ordered output."""

    limit: Optional[int]
    offset: Optional[int]

    @property
    def label(self) -> str:
        return f"Limit(limit={self.limit}, offset={self.offset})"


@dataclass
class SelectPlan:
    """The planned form of one SELECT, consumed by the executor's pipeline."""

    select: Select
    scan: Optional[ScanNode]
    filter: Optional[FilterNode] = None
    group: Optional[GroupNode] = None
    window: Optional[WindowNode] = None
    project: Optional[ProjectNode] = None
    qualify: Optional[QualifyNode] = None
    distinct: Optional[DistinctNode] = None
    order: Optional[OrderNode] = None
    limit: Optional[LimitNode] = None

    @property
    def windows(self) -> List[WindowFunction]:
        return self.window.functions if self.window is not None else []

    def stages(self) -> List[object]:
        """The stage nodes in execution order (omitting absent stages)."""
        out: List[object] = []
        if self.scan is not None:
            out.append(self.scan)
        if self.filter is not None:
            out.append(self.filter)
        if self.group is not None:
            out.append(self.group)
        else:
            if self.window is not None:
                out.append(self.window)
            if self.project is not None:
                out.append(self.project)
            if self.qualify is not None:
                out.append(self.qualify)
        if self.distinct is not None:
            out.append(self.distinct)
        if self.order is not None:
            out.append(self.order)
        if self.limit is not None:
            out.append(self.limit)
        return out

    def describe(self) -> str:
        """Human-readable pipeline, one stage per line (for tests and EXPLAIN)."""
        lines = ["SelectPlan"]
        lines.extend(f"  {i}: {stage.label}" for i, stage in enumerate(self.stages()))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# planning
# --------------------------------------------------------------------------
def contains_aggregate(expr: Expression) -> bool:
    """True when ``expr`` contains an aggregate function call."""
    if isinstance(expr, FunctionCall):
        if expr.name in AGGREGATE_NAMES:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, Cast):
        return contains_aggregate(expr.operand)
    if isinstance(expr, CaseWhen):
        parts: List[Expression] = []
        for cond, res in expr.whens:
            parts.extend([cond, res])
        if expr.default is not None:
            parts.append(expr.default)
        if expr.operand is not None:
            parts.append(expr.operand)
        return any(contains_aggregate(p) for p in parts)
    if isinstance(expr, (IsNull, Between)):
        return contains_aggregate(expr.operand)
    if isinstance(expr, Like):
        return contains_aggregate(expr.operand) or contains_aggregate(expr.pattern)
    if isinstance(expr, InList):
        return contains_aggregate(expr.operand) or any(contains_aggregate(i) for i in expr.items)
    return False


def collect_windows(expr: Expression, out: List[WindowFunction]) -> None:
    """Append every WindowFunction node in ``expr`` to ``out`` (pre-order)."""
    if isinstance(expr, WindowFunction):
        out.append(expr)
        return
    if isinstance(expr, FunctionCall):
        for a in expr.args:
            collect_windows(a, out)
    elif isinstance(expr, BinaryOp):
        collect_windows(expr.left, out)
        collect_windows(expr.right, out)
    elif isinstance(expr, UnaryOp):
        collect_windows(expr.operand, out)
    elif isinstance(expr, Cast):
        collect_windows(expr.operand, out)
    elif isinstance(expr, CaseWhen):
        for cond, res in expr.whens:
            collect_windows(cond, out)
            collect_windows(res, out)
        if expr.default is not None:
            collect_windows(expr.default, out)
        if expr.operand is not None:
            collect_windows(expr.operand, out)
    elif isinstance(expr, (IsNull, Between)):
        collect_windows(expr.operand, out)
    elif isinstance(expr, Like):
        collect_windows(expr.operand, out)
        collect_windows(expr.pattern, out)
        if expr.escape is not None:
            collect_windows(expr.escape, out)
    elif isinstance(expr, InList):
        collect_windows(expr.operand, out)
        for i in expr.items:
            collect_windows(i, out)


def plan_select(select: Select) -> SelectPlan:
    """Build the stage-node plan for ``select`` (once per query)."""
    has_group = bool(select.group_by)
    has_aggregate = any(contains_aggregate(item.expression) for item in select.items) or (
        select.having is not None and contains_aggregate(select.having)
    )

    window_nodes: List[WindowFunction] = []
    for item in select.items:
        collect_windows(item.expression, window_nodes)
    if select.qualify is not None:
        collect_windows(select.qualify, window_nodes)

    return SelectPlan(
        select=select,
        scan=ScanNode(select.from_table) if select.from_table is not None else None,
        filter=FilterNode(select.where) if select.where is not None else None,
        group=GroupNode(list(select.group_by), select.having) if has_group or has_aggregate else None,
        window=WindowNode(window_nodes) if window_nodes else None,
        project=ProjectNode(list(select.items)),
        qualify=QualifyNode(select.qualify) if select.qualify is not None else None,
        distinct=DistinctNode() if select.distinct else None,
        order=OrderNode(list(select.order_by)) if select.order_by else None,
        limit=LimitNode(select.limit, select.offset)
        if select.limit is not None or select.offset is not None
        else None,
    )
