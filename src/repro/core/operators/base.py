"""Shared machinery for cleaning operators.

Every operator follows the same three-step shape from Figure 1(b):
statistical detection → semantic detection (LLM) → semantic cleaning (LLM),
and finally hands its decision to :meth:`CleaningOperator.apply_step`, which
renders it as the :class:`~repro.core.plan.PlanStep` statement that
materialises the next version of the table.  The base class provides the LLM
helpers, that one apply path and the cell-level diff that turns a table
rewrite into a list of :class:`~repro.core.result.CellRepair` objects.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from itertools import compress
from operator import is_not, itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.plan import PlanStep
from repro.core.result import CellRepair, DetectionFinding, OperatorResult
from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.llm.parsing import ResponseParseError, extract_json, parse_mapping_yaml
from repro.obs import current_ref as obs_current_ref
from repro.obs import span as obs_span
from repro.obs.lineage import values_strictly_differ


class CleaningOperator(abc.ABC):
    """One issue type of the Cocoon workflow."""

    issue_type: str = "abstract"

    def __init__(self) -> None:
        self._llm_calls = 0

    def target_span(self, target: str, **attrs: Any):
        """Span covering the work on one target (column, table or FD candidate).

        Nested under the per-operator span opened by
        :func:`repro.core.pipeline.run_operators`, so traces read
        ``operator.dmv`` → ``operator.dmv.target`` per column.
        """
        return obs_span(f"operator.{self.issue_type}.target", target=target, **attrs)

    # -- abstract interface -------------------------------------------------------
    @abc.abstractmethod
    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        """Detect and clean this operator's issue type across its targets."""

    # -- LLM helpers -----------------------------------------------------------------
    def ask_json(self, context: CleaningContext, prompt: str, purpose: str) -> Optional[Dict[str, Any]]:
        """Call the model and parse a JSON response; None when unparseable."""
        self._llm_calls += 1
        response = context.llm.complete(prompt, purpose=purpose)
        try:
            return extract_json(response.text)
        except ResponseParseError:
            return None

    def ask_mapping(self, context: CleaningContext, prompt: str, purpose: str) -> Tuple[str, Dict[str, str]]:
        """Call the model and parse the Figure 3 explanation/mapping response."""
        self._llm_calls += 1
        response = context.llm.complete(prompt, purpose=purpose)
        return parse_mapping_yaml(response.text)

    def take_llm_calls(self) -> int:
        """Return and reset the number of LLM calls made since the last call."""
        calls = self._llm_calls
        self._llm_calls = 0
        return calls

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
    ) -> OperatorResult:
        """Review, render, execute and record one cleaning decision.

        The decision becomes a :class:`~repro.core.plan.PlanStep` writing the
        next table name for ``suffix``; its statement (led by ``comments``) is
        shown to the reviewer with the step's value mapping.  A reviewer's
        edited mapping replaces the payload's ``mapping`` and the statement is
        re-rendered.  The executed step is diffed into ``result.repairs`` and
        ``result.removed_row_ids`` — row identity is carried by the hidden
        row-id column, so repairs survive reordering and row removal — and,
        when the context carries a lineage recorder, every strict cell change
        and removed row is recorded under :attr:`PlanStep.step_id`.
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
            result.llm_calls = self.take_llm_calls()
            return result
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
        if context.lineage is not None:
            # Records join the target's span, not the recording span.
            span_ref = obs_current_ref()
            with obs_span("lineage.record"):
                self._record_lineage(context, before, after, result.removed_row_ids, step, span_ref)
        context.advance(target_table)
        result.sql = sql
        result.step = step
        result.llm_calls = self.take_llm_calls()
        return result

    def _record_lineage(
        self,
        context: CleaningContext,
        before: Table,
        after: Table,
        removed: List[int],
        step: PlanStep,
        span_ref: Optional[Tuple[str, int]],
    ) -> None:
        """Record this step's strict cell diff + removals into the context recorder."""
        step_id = step.step_id
        # The last ``_llm_calls`` history entries are exactly this target's
        # calls (take_llm_calls resets the counter after every target).
        history = context.llm.history
        llm_info = (
            [
                {"cache_key": rec.cache_key, "hit": rec.cache_hit, "purpose": rec.purpose}
                for rec in history[len(history) - self._llm_calls :]
            ]
            if self._llm_calls
            else []
        )
        context.lineage.record_step_edits(
            strict_table_edits(before, after),
            operator=step.issue_type,
            target=step.target,
            kind=step.kind,
            step_id=step_id,
            decision=dict(step.payload),
            llm=llm_info,
            span_ref=span_ref,
        )
        for row_id in removed:
            context.lineage.record_removal(
                row_id,
                operator=step.issue_type,
                target=step.target,
                kind=step.kind,
                step_id=step_id,
                mode="dropped",
                span_ref=span_ref,
            )

    # -- misc helpers ----------------------------------------------------------------------
    @staticmethod
    def make_finding(
        issue_type: str,
        target: str,
        statistical_evidence: str,
        detected: bool,
        llm_reasoning: str = "",
        llm_summary: str = "",
    ) -> DetectionFinding:
        return DetectionFinding(
            issue_type=issue_type,
            target=target,
            statistical_evidence=statistical_evidence,
            detected=detected,
            llm_reasoning=llm_reasoning,
            llm_summary=llm_summary,
        )


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
