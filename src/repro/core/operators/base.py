"""Shared machinery for cleaning operators.

Every operator follows the same three-step shape from Figure 1(b):
statistical detection → semantic detection (LLM) → semantic cleaning (LLM),
one target (column, table or FD candidate) at a time.
:meth:`CleaningOperator.run` is the one target loop: it gives each target its
:class:`~repro.core.result.OperatorResult`, its span and its LLM call count,
and records the lineage of an applied step.  An operator names its targets
and cleans one, handing its decision to :meth:`CleaningOperator.apply_step`,
which renders it as the :class:`~repro.core.plan.PlanStep` statement that
materialises the next version of the table.  The base class also provides
the LLM helpers and the cell-level diff that turns a table rewrite into a
list of :class:`~repro.core.result.CellRepair` objects.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from itertools import compress
from operator import is_not, itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.plan import PlanStep
from repro.core.result import CellRepair, DetectionFinding, OperatorResult
from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.llm.base import CallRecord
from repro.llm.parsing import ResponseParseError, extract_json, parse_mapping_yaml
from repro.obs import current_ref as obs_current_ref
from repro.obs import span as obs_span
from repro.obs.lineage import values_strictly_differ


class CleaningOperator(abc.ABC):
    """One issue type of the Cocoon workflow."""

    issue_type: str = "abstract"

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        """Detect and clean this operator's issue type across its targets.

        Each target is cleaned inside an ``operator.<issue_type>.target``
        span, nested under the per-operator span opened by
        :func:`repro.core.pipeline.run_operators`.  The target's LLM calls
        are the ``context.llm.history`` entries appended while it is
        cleaned: their number is ``result.llm_calls``, and they are the
        ``llm`` provenance of the lineage an applied step records.
        """
        results: List[OperatorResult] = []
        for target, item in self.targets(context):
            result = OperatorResult(issue_type=self.issue_type, target=target)
            first_call = len(context.llm.history)
            before = context.current_table()
            with obs_span(f"operator.{self.issue_type}.target", target=target):
                self.clean_target(context, hil, result, item)
                calls = context.llm.history[first_call:]
                if result.applied and context.lineage is not None:
                    # Records join the target's span, not the recording span.
                    span_ref = obs_current_ref()
                    with obs_span("lineage.record"):
                        self._record_lineage(context, before, result, calls, span_ref)
            result.llm_calls = len(calls)
            results.append(result)
        return results

    # -- abstract interface -------------------------------------------------------
    @abc.abstractmethod
    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, Any]]:
        """Yield ``(target name, item)`` for each target, lazily.

        Each target is chosen when the previous one is done, so a check on
        ``context.profile()`` reads the table version that target left.
        ``item`` is what :meth:`clean_target` needs besides the result.
        """

    @abc.abstractmethod
    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, item: Any
    ) -> None:
        """Detect and clean one target, filling in ``result``."""

    # -- LLM helpers -----------------------------------------------------------------
    def ask_json(self, context: CleaningContext, prompt: str, purpose: str) -> Optional[Dict[str, Any]]:
        """Call the model and parse a JSON response; None when unparseable."""
        response = context.llm.complete(prompt, purpose=purpose)
        try:
            return extract_json(response.text)
        except ResponseParseError:
            return None

    def ask_mapping(self, context: CleaningContext, prompt: str, purpose: str) -> Tuple[str, Dict[str, str]]:
        """Call the model and parse the Figure 3 explanation/mapping response."""
        response = context.llm.complete(prompt, purpose=purpose)
        return parse_mapping_yaml(response.text)

    # -- applying a decision ---------------------------------------------------------
    def apply_step(
        self,
        context: CleaningContext,
        hil: HumanInTheLoop,
        result: OperatorResult,
        kind: str,
        suffix: str,
        payload: Dict[str, Any],
        comments: List[str],
    ) -> None:
        """Review, render, execute and record one cleaning decision.

        The decision becomes a :class:`~repro.core.plan.PlanStep` writing the
        next table name for ``suffix``; its statement (led by ``comments``) is
        shown to the reviewer with the step's value mapping.  A reviewer's
        edited mapping replaces the payload's ``mapping`` and the statement is
        re-rendered.  The executed step is diffed into ``result.repairs`` and
        ``result.removed_row_ids`` — row identity is carried by the hidden
        row-id column, so repairs survive reordering and row removal.
        """
        finding = result.finding
        source_table = context.current_table_name
        columns = context.data_columns()
        target_table = context.next_table_name(suffix)
        step = PlanStep(kind, self.issue_type, result.target, target_table, payload)
        sql = step.render(source_table, target_table, columns, comments)
        decision = hil.review_cleaning(finding, step.review_mapping, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            return
        if decision.edited_mapping is not None and "mapping" in payload:
            step = replace(step, payload={**payload, "mapping": dict(decision.edited_mapping)})
            edited = f"{comments[0].removesuffix('.')} (reviewer-edited mapping)."
            sql = step.render(source_table, target_table, columns, [edited])

        before = context.current_table()
        context.db.sql(sql)
        after = context.db.table(target_table)
        with obs_span("core.diff"):
            result.repairs, result.removed_row_ids = diff_tables(
                before, after, issue_type=self.issue_type, reason=finding.llm_summary
            )
        context.advance(target_table)
        result.sql = sql
        result.step = step

    def _record_lineage(
        self,
        context: CleaningContext,
        before: Table,
        result: OperatorResult,
        calls: Sequence[CallRecord],
        span_ref: Optional[Tuple[str, int]],
    ) -> None:
        """Record an applied step's strict cell diff and removals, each
        carrying the target's own LLM ``calls`` as provenance."""
        step = result.step
        context.lineage.record_step_edits(
            strict_table_edits(before, context.current_table()),
            operator=step.issue_type,
            target=step.target,
            kind=step.kind,
            step_id=step.step_id,
            decision=dict(step.payload),
            llm=[{"cache_key": c.cache_key, "hit": c.cache_hit, "purpose": c.purpose} for c in calls],
            span_ref=span_ref,
        )
        for row_id in result.removed_row_ids:
            context.lineage.record_removal(
                row_id,
                operator=step.issue_type,
                target=step.target,
                kind=step.kind,
                step_id=step.step_id,
                mode="dropped",
                span_ref=span_ref,
            )


def record_finding(
    result: OperatorResult, evidence: str, detected: bool, reasoning: str, summary: str
) -> DetectionFinding:
    """Set ``result.finding`` for the result's issue and target, and return it."""
    result.finding = DetectionFinding(
        issue_type=result.issue_type,
        target=result.target,
        statistical_evidence=evidence,
        detected=detected,
        llm_reasoning=reasoning,
        llm_summary=summary,
    )
    return result.finding


def diff_tables(
    before: Table,
    after: Table,
    issue_type: str,
    reason: str,
) -> Tuple[List[CellRepair], List[int]]:
    """Cell-level diff between two versions of a table keyed by the row-id column."""
    removed, cells = _step_diff(before, after, _cell_changed)
    repairs = [
        CellRepair(
            row_id=row_id,
            column=column,
            old_value=old,
            new_value=new,
            issue_type=issue_type,
            reason=reason,
        )
        for row_id, column, old, new in cells
    ]
    return repairs, removed


def strict_table_edits(before: Table, after: Table) -> List[Tuple[int, str, Any, Any]]:
    """Strict cell diff between two table versions, keyed by the row-id column.

    Unlike :func:`diff_tables` (which uses the canonical-text repair predicate)
    this uses :func:`~repro.obs.lineage.values_strictly_differ` — the same
    predicate as ``repro.datasets.base.strict_differs`` — because the lineage
    contract promises to explain *every* surface change, including pure
    representation changes such as a cast turning ``'12'`` into ``12.0``.
    Rows absent from ``after`` are skipped (they are recorded as removals).
    """
    return _step_diff(before, after, values_strictly_differ)[1]


def _step_diff(
    before: Table, after: Table, predicate: Callable[[Any, Any], bool]
) -> Tuple[List[int], List[Tuple[int, str, Any, Any]]]:
    """``(removed, cells)`` between two versions keyed by the row-id column.

    ``removed`` lists the row ids ``after`` lacks; ``cells`` holds
    ``(row_id, column, old, new)`` per compared cell ``predicate`` flags.
    Both come in the order of a row-by-row, column-by-column scan of
    ``before``.  The predicate is called only where the two cells are
    different objects.  That is exact for both step predicates over the
    values a table holds: on ``x is x``, a NULL (None or float NaN) returns
    early as unchanged, ``x != x`` is False for every other builtin, and
    ``str(x) != str(x)`` always is, so neither can flag a cell whose object
    a statement handed back — as a value-map ``CASE … ELSE col`` does for
    every cell it leaves alone.  The one value for which this is not so,
    ``decimal.Decimal('NaN')`` (unequal to itself but not a NULL), is never
    stored by the engine.
    """
    columns = _compared_columns(before, after)
    before_ids = before.column(ROW_ID_COLUMN).values
    kept: Optional[List[int]] = None
    removed: List[int] = []
    if before.column(ROW_ID_COLUMN) is not after.column(ROW_ID_COLUMN):
        after_ids = after.column(ROW_ID_COLUMN).values
        after_index = dict(zip(after_ids, range(len(after_ids))))
        positions = list(map(after_index.get, before_ids))
        kept = [i for i, j in enumerate(positions) if j is not None]
        at = [positions[i] for i in kept]
        removed = [int(before_ids[i]) for i, j in enumerate(positions) if j is None]
    hits: List[Tuple[int, int, str, Any, Any]] = []
    for rank, column in enumerate(columns):
        olds = before.column(column).values
        news = after.column(column).values
        if kept is not None:
            olds = [olds[i] for i in kept]
            news = [news[j] for j in at]
        for k in compress(range(len(olds)), map(is_not, olds, news)):
            if predicate(olds[k], news[k]):
                hits.append((k if kept is None else kept[k], rank, column, olds[k], news[k]))
    hits.sort(key=itemgetter(0, 1))
    return removed, [(int(before_ids[i]), column, old, new) for i, _rank, column, old, new in hits]


def _compared_columns(before: Table, after: Table) -> List[str]:
    """The data columns both step diffs compare.

    Row ids are unique, so a column whose
    :class:`~repro.dataframe.column.Column` object both versions share, under
    a shared row-id column, holds identical cells at identical rows: no
    predicate can report it, and it is skipped.
    """
    if ROW_ID_COLUMN not in before or ROW_ID_COLUMN not in after:
        raise ValueError("diff_tables requires both tables to carry the row-id column")
    same_rows = before.column(ROW_ID_COLUMN) is after.column(ROW_ID_COLUMN)
    return [
        c
        for c in after.column_names
        if c != ROW_ID_COLUMN
        and c in before
        and not (same_rows and before.column(c) is after.column(c))
    ]


def _cell_changed(old: Any, new: Any) -> bool:
    if is_null(old) and is_null(new):
        return False
    if is_null(old) != is_null(new):
        return True
    if type(old) is type(new):
        return old != new
    # Type changed by a CAST: compare canonical text so '12' → 12 does not count,
    # but 'yes' → True does.
    return _canonical_text(old) != _canonical_text(new)


def _canonical_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and float(value).is_integer():
        return str(int(value))
    return str(value).strip()
