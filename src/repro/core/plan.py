"""Cleaning-plan extraction and replay.

A finished :class:`~repro.core.result.CleaningResult` contains more than the
cleaned cells: every applied operator recorded *what it decided* — the
old → new value map a column was rewritten with, the type it was cast to,
the disguised-missing tokens it nulled, the FD correction keyed on the
determinant, whether duplicates were judged erroneous.  Those decisions are
the expensive part of a run (each one cost LLM calls); the SQL that applies
them is cheap and deterministic.

Every decision is a :class:`PlanStep` from the start: the operator renders
and executes it, and :class:`CleaningPlan` collects the applied steps in
order so they can be *replayed* on new data with zero LLM calls — the heart
of the ``repro.stream`` incremental engine.  :meth:`PlanStep.render` is the
only decision → SQL dispatch: it picks the statement for the step's kind
and has a dialect (:mod:`repro.core.dialects`) render it.  Steps split into
two classes:

* **row-local** steps (string/pattern maps, DMV nulling, casts, numeric
  range nulling, FD ``CASE WHEN`` repairs): pure per-row functions.  They
  replay by rendering the same statement against *any* subset of rows —
  running them on a micro-batch gives exactly the rows the whole-table run
  would have produced for those rows.
* **table-level** steps (duplicate removal, key uniqueness): they reason
  across rows, so replay needs cross-batch state.  The plan carries their
  parameters (partition columns, keep-order); :mod:`repro.stream.state`
  maintains the matching incremental state.

The canonical operator order guarantees row-local steps form a prefix of the
plan (FDs run before duplication/uniqueness); :func:`CleaningPlan.validate`
enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.context import ROW_ID_COLUMN
from repro.core.dialects import DEFAULT_DIALECT, ReproDialect, comment_block
from repro.core.result import CleaningResult
from repro.dataframe.table import Table
from repro.obs import current_ref as obs_current_ref
from repro.obs.lineage import LineageRecorder, lineage_step_id, values_strictly_differ
from repro.sql.database import Database, PreparedStatement

#: Step kinds whose effect is a pure per-row function.
ROW_LOCAL_KINDS = frozenset({"value_map", "null_values", "cast", "range", "fd_map"})
#: Step kinds that reason across rows and need cross-batch state to replay.
TABLE_LEVEL_KINDS = frozenset({"dedup", "unique"})


class PlanExtractionError(ValueError):
    """The operator results cannot be turned into a replayable plan."""


@dataclass(frozen=True)
class PlanStep:
    """One cleaning decision: what an operator applies and a plan replays.

    Operators build a step, render it with :meth:`render` and execute that
    statement (:meth:`repro.core.operators.base.CleaningOperator.apply_step`);
    plan replay and emission render the same step against other tables.
    A step is a value: a changed decision (a reviewer's edited mapping) is a
    new step, never a payload edited in place.
    """

    kind: str
    issue_type: str
    target: str
    target_table: str
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def row_local(self) -> bool:
        return self.kind in ROW_LOCAL_KINDS

    @cached_property
    def step_id(self) -> str:
        """Stable lineage id of this decision.

        The batch application and every replay of this step record lineage
        under it, so their records carry bit-identical step ids.  Hashed once
        per step.
        """
        return lineage_step_id(
            self.kind, self.issue_type, self.target, self.target_table, self.payload
        )

    @property
    def review_mapping(self) -> Dict[str, str]:
        """The old → new value map a reviewer is shown (nulled values map to ``""``)."""
        if self.kind == "null_values":
            return {value: "" for value in self.payload["values"]}
        return dict(self.payload.get("mapping") or {})

    @property
    def rewritten_column(self) -> str:
        """The data column a row-local step rewrites."""
        if self.kind == "fd_map":
            return str(self.payload["dependent"])
        return str(self.payload["column"])

    def _expression(self, dialect: ReproDialect) -> str:
        """The SQL expression a row-local step rewrites its column with."""
        payload = self.payload
        if self.kind == "value_map":
            return dialect.case_when_mapping(payload["column"], payload["mapping"])
        if self.kind == "null_values":
            return dialect.case_when_null(payload["column"], payload["values"])
        if self.kind == "cast":
            return dialect.cast_column(
                payload["column"], payload["target_type"], payload.get("mapping") or None
            )
        if self.kind == "range":
            return dialect.case_when_threshold(
                payload["column"], payload.get("low"), payload.get("high")
            )
        if self.kind == "fd_map":
            return dialect.conditional_update_expression(
                payload["dependent"], payload["determinant"], payload["mapping"]
            )
        raise PlanExtractionError(f"Unknown plan step kind {self.kind!r}")

    def render(
        self,
        source_table: str,
        target_table: str,
        columns: List[str],
        comments: Optional[Sequence[str]] = None,
        dialect: Optional[ReproDialect] = None,
    ) -> str:
        """Render this step as one statement reading ``source_table``.

        ``columns`` are the data columns (the hidden row-id column is
        prepended).  ``comments`` lead the statement; the default names the
        step as a replay.  Row-local steps rewrite one column of a projection;
        dedup/unique steps keep the first row per partition.  ``dialect``
        (default :data:`~repro.core.dialects.DEFAULT_DIALECT`) spells it.
        """
        dialect = dialect or DEFAULT_DIALECT
        if comments is None:
            comments = [f"Replayed {self.issue_type} step for {self.target}."]
        all_columns = [ROW_ID_COLUMN] + list(columns)
        if self.kind in TABLE_LEVEL_KINDS:
            if self.kind == "dedup":
                partition, order_sql = list(self.payload["columns"]), ROW_ID_COLUMN
            else:
                order_column = self.payload.get("order_column")
                partition = [self.payload["column"]]
                order_sql = (
                    f"{dialect.quote_identifier(order_column)} DESC"
                    if order_column
                    else ROW_ID_COLUMN
                )
            return dialect.keep_first_statement(
                source_table, target_table, partition, order_sql, comments, all_columns
            )
        return dialect.select_with_replacements(
            source_table,
            target_table,
            all_columns,
            {self.rewritten_column: self._expression(dialect)},
            comments,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "issue_type": self.issue_type,
            "target": self.target,
            "target_table": self.target_table,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanStep":
        return cls(
            kind=str(data["kind"]),
            issue_type=str(data["issue_type"]),
            target=str(data["target"]),
            target_table=str(data["target_table"]),
            payload=dict(data.get("payload") or {}),
        )


@dataclass
class CleaningPlan:
    """The ordered, LLM-free replayable core of one cleaning run."""

    base_table: str
    column_names: List[str]
    steps: List[PlanStep] = field(default_factory=list)
    llm_calls_invested: int = 0
    #: The prepared row-local replay chain, keyed on what it was rendered
    #: from (see :meth:`_replay_chain`).
    _replay_memo: Optional[Tuple[Tuple, List[Tuple[PlanStep, str, PreparedStatement]]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.validate()

    # -- structure ---------------------------------------------------------------
    def validate(self) -> None:
        """Row-local steps must form a prefix; kinds must be known."""
        seen_table_level = False
        for step in self.steps:
            if step.kind not in ROW_LOCAL_KINDS and step.kind not in TABLE_LEVEL_KINDS:
                raise PlanExtractionError(f"Unknown plan step kind {step.kind!r}")
            if step.row_local and seen_table_level:
                raise PlanExtractionError(
                    f"Row-local step {step.kind}:{step.target} appears after a table-level "
                    "step; the replay prefix invariant is broken"
                )
            if not step.row_local:
                seen_table_level = True

    @property
    def row_local_steps(self) -> List[PlanStep]:
        return [s for s in self.steps if s.row_local]

    @property
    def table_level_steps(self) -> List[PlanStep]:
        return [s for s in self.steps if not s.row_local]

    # -- replay -------------------------------------------------------------------
    def replay_row_local(
        self,
        batch_with_ids: Table,
        database: Optional[Database] = None,
        lineage: Optional[LineageRecorder] = None,
    ) -> Table:
        """Run the row-local prefix on a batch, returning the rewritten rows.

        ``batch_with_ids`` must carry the hidden row-id column and the plan's
        data columns.  The batch is registered in a scratch database and each
        step executes as a regenerated ``CREATE OR REPLACE TABLE ... AS
        SELECT`` reading its predecessor's output.  Every step is a pure
        per-row function, so running the chain on any subset of rows yields
        exactly those rows of the whole-table chain.

        When ``lineage`` is given, every strict cell change each step makes is
        recorded against it with the step's :attr:`PlanStep.step_id` — the same
        id the batch run recorded — and an empty LLM list (replay spends none).
        """
        expected = [ROW_ID_COLUMN] + list(self.column_names)
        if batch_with_ids.column_names != expected:
            raise ValueError(
                f"Batch columns {batch_with_ids.column_names} do not match plan columns {expected}"
            )
        db = database if database is not None else Database()
        base = f"{self.base_table}__replay"
        db.register(batch_with_ids.rename(base), replace=True)
        current = base
        for step, target, prepared in self._replay_chain(base):
            db.sql(prepared)
            if lineage is not None:
                self._record_replay_step(db, current, target, step, lineage)
            current = target
        return db.table(current)

    def _replay_chain(self, base: str) -> List[Tuple[PlanStep, str, PreparedStatement]]:
        """``(step, target table, prepared statement)`` per row-local step.

        Rendered and prepared once per plan, not once per batch: each batch
        only runs the prepared statements.  The memo is keyed on the step
        objects themselves (steps are values: a changed decision is a new
        step), the table names and the columns, so a changed step list never
        replays a stale statement.
        """
        steps = self.row_local_steps
        key = (base, tuple(self.column_names), tuple(map(id, steps)))
        if self._replay_memo is None or self._replay_memo[0] != key:
            chain = []
            current = base
            for index, step in enumerate(steps, start=1):
                target = f"{base}_step{index}"
                query = step.render(current, target, self.column_names)
                chain.append((step, target, PreparedStatement(query)))
                current = target
            self._replay_memo = (key, chain)
        return self._replay_memo[1]

    @staticmethod
    def _record_replay_step(
        db: Database, source: str, target: str, step: PlanStep, lineage: LineageRecorder
    ) -> None:
        """Diff one replayed step's rewritten column into lineage records.

        A row-local step only touches :attr:`PlanStep.rewritten_column` and the
        regenerated SELECT preserves row order, so a positional scan of that
        one column is the complete diff.
        """
        before = db.table(source)
        after = db.table(target)
        column = step.rewritten_column
        row_ids = before.column(ROW_ID_COLUMN).values
        before_values = before.column(column).values
        after_values = after.column(column).values
        span_ref = obs_current_ref()
        edits = [
            (int(row_ids[i]), column, before_values[i], after_values[i])
            for i in range(len(row_ids))
            if values_strictly_differ(before_values[i], after_values[i])
        ]
        if edits:
            lineage.record_step_edits(
                edits,
                operator=step.issue_type,
                target=step.target,
                kind=step.kind,
                step_id=step.step_id,
                decision=dict(step.payload),
                llm=[],
                span_ref=span_ref,
            )

    # -- emission -------------------------------------------------------------------
    def final_table(self) -> str:
        """The table the emitted script leaves the cleaned rows in."""
        return self.steps[-1].target_table if self.steps else self.base_table

    def emit(self, dialect: Optional[ReproDialect] = None) -> str:
        """Render the whole plan as one SQL script for ``dialect``.

        The script reads ``base_table`` (which must carry the hidden row-id
        column plus the plan's data columns) and chains every step through
        the operator-recorded ``target_table`` names, so the cleaned result
        lands in :meth:`final_table` — the same table name the in-process
        pipeline produced.  With the default dialect the statements match the
        in-process replay chain; with e.g.
        :class:`~repro.core.dialects.SqliteDialect` the same decisions run
        on an external engine, cleaning data that never becomes a ``Table``.
        """
        dialect = dialect or DEFAULT_DIALECT
        header = comment_block(
            [
                f"Cocoon cleaning plan for {self.base_table} "
                f"({len(self.steps)} steps, {dialect.name} dialect).",
                "Replays recorded LLM decisions; no model calls are needed to re-run it.",
            ]
        )
        statements = []
        current = self.base_table
        for step in self.steps:
            statements.append(
                step.render(current, step.target_table, self.column_names, dialect=dialect)
            )
            current = step.target_table
        if not statements:
            return header
        # The header rides on the first statement: a standalone comment-only
        # chunk between ``;`` separators would not survive statement splitting.
        return header + "\n" + ";\n\n".join(statements) + ";\n"

    # -- serialisation ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "base_table": self.base_table,
            "column_names": list(self.column_names),
            "llm_calls_invested": self.llm_calls_invested,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CleaningPlan":
        return cls(
            base_table=str(data["base_table"]),
            column_names=list(data["column_names"]),
            steps=[PlanStep.from_dict(s) for s in data.get("steps", [])],
            llm_calls_invested=int(data.get("llm_calls_invested", 0)),
        )

    def summary_text(self) -> str:
        lines = [f"Cleaning plan for {self.base_table}: {len(self.steps)} steps"]
        for step in self.steps:
            scope = "row-local" if step.row_local else "table-level"
            lines.append(f"  [{scope}] {step.issue_type}: {step.target} ({step.kind})")
        return "\n".join(lines)


def extract_plan(result: CleaningResult) -> CleaningPlan:
    """Extract the replayable plan from a finished cleaning run.

    Only *applied* operator results contribute steps; detections that were
    rejected (by the model or the reviewer) or skipped carry no step.
    """
    if not result.base_table:
        raise PlanExtractionError(
            "CleaningResult.base_table is empty; run the table through CocoonCleaner.clean "
            "(or populate base_table) before extracting a plan"
        )
    return CleaningPlan(
        base_table=result.base_table,
        column_names=[c for c in result.dirty_table.column_names if c != ROW_ID_COLUMN],
        steps=[op.step for op in result.operator_results if op.step is not None],
        llm_calls_invested=result.llm_calls,
    )
