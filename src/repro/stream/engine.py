"""The incremental micro-batch cleaning engine.

:class:`StreamingCleaner` turns the one-shot Cocoon pipeline into a
continuously running service primitive:

1. **Prime** — the first (non-empty) micro-batch runs the full pipeline
   (profile → prompt → SQL) once; the per-column LLM decisions are extracted
   into a :class:`~repro.core.plan.CleaningPlan`.
2. **Replay** — every further batch replays the cached plan: row-local steps
   re-execute as SQL on just the new rows, through statements the plan
   prepared (parsed, planned and compiled) once; table-level steps (dedup,
   uniqueness) fold through :class:`~repro.stream.state.TableLevelState`.
   Zero LLM calls; the engine asserts it.
3. **Drift** — per-column :class:`~repro.profiling.mergeable.MergeableColumnProfile`
   counts (and their top values, ranked as they fold) feed a
   :class:`~repro.stream.drift.DriftDetector`, which froze each column's
   plan-time signals when the plan was derived.  When a
   column's profile distance crosses the threshold, *only that column* is
   re-prompted (its column-level operators re-run over the accumulated raw
   rows), the new steps are spliced into the plan, and the cumulative output
   is rebuilt — surfacing any changed cells as retractions + additions.

Determinism guarantee (pinned by ``tests/stream/test_parity.py``): while no
drift fires, streaming a table in *any* micro-batch partitioning emits
exactly the cells the whole-table pipeline produces, because (a) the plan
derived from the priming batch equals the whole-table plan when the priming
statistics agree (that is what "no drift" means), (b) row-local steps are
pure per-row functions, and (c) the table-level fold mirrors the QUALIFY
semantics bit for bit.

A batch folds only what a consumer reads: the raw values (re-plans read
them), the column profiles (drift reads them), the duplicate-row count (the
stats report it) and the table-level fold (the output).  No FD state is
kept, because nothing reads FD candidates after the prime.

Known limitation, by design: FD corrections and the dedup/uniqueness
*decisions* are reused from the priming run even after a column re-plan; a
workload whose row-relationships drift needs a fresh prime (``reset``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.context import ROW_ID_COLUMN, CleaningConfig, CleaningContext
from repro.core.hil import AutoApprove, HumanInTheLoop
from repro.core.pipeline import CocoonCleaner, run_operators
from repro.core.plan import CleaningPlan, PlanStep, extract_plan
from repro.core.workflow import COLUMN_LEVEL_ISSUES, ISSUE_ORDER, default_operators
from repro.dataframe.column import Column
from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.llm.base import LLMClient
from repro.llm.simulated import SimulatedSemanticLLM
from repro.obs import span as obs_span
from repro.obs.lineage import LineageRecorder
from repro.profiling.incremental import IncrementalDuplicateState
from repro.profiling.mergeable import MergeableColumnProfile
from repro.sql.database import Database
from repro.stream.drift import ColumnDrift, DriftConfig, DriftDetector
from repro.stream.state import TableLevelDelta, TableLevelState

Row = Tuple[Any, ...]

#: Rank of each issue type in the canonical workflow, for plan splicing.
_ISSUE_RANK = {issue: rank for rank, issue in enumerate(ISSUE_ORDER)}
#: Row-local kinds that target a single column (spliced on re-plan).
_COLUMN_STEP_KINDS = frozenset({"value_map", "null_values", "cast", "range"})


@dataclass
class StreamBatchResult:
    """What one micro-batch did to the stream."""

    batch_index: int
    rows_in: int
    first_row_id: int
    #: Rows added to (or changed in) the cumulative cleaned output.
    added: List[Tuple[int, Row]] = field(default_factory=list)
    #: Batch rows that table-level steps removed (duplicates, key losers).
    dropped_row_ids: List[int] = field(default_factory=list)
    #: Previously emitted rows displaced by this batch (keep-best uniqueness
    #: or a drift re-plan rewriting history).
    retracted_row_ids: List[int] = field(default_factory=list)
    llm_calls: int = 0
    #: True when the batch was served purely from the cached plan.
    replayed: bool = False
    primed: bool = False
    #: True while the engine is still buffering toward ``prime_rows``.
    buffered: bool = False
    drifted_columns: List[str] = field(default_factory=list)
    drift: List[ColumnDrift] = field(default_factory=list)
    seconds: float = 0.0
    cumulative_rows_emitted: int = 0

    @property
    def added_row_ids(self) -> List[int]:
        return [row_id for row_id, _ in self.added]


@dataclass
class StreamStats:
    """Cumulative accounting across all processed batches."""

    batches: int = 0
    rows_ingested: int = 0
    rows_emitted: int = 0
    rows_dropped: int = 0
    retractions: int = 0
    llm_calls: int = 0
    replayed_batches: int = 0
    primes: int = 0
    replans: int = 0
    plan_steps: int = 0
    duplicate_rows_seen: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "rows_ingested": self.rows_ingested,
            "rows_emitted": self.rows_emitted,
            "rows_dropped": self.rows_dropped,
            "retractions": self.retractions,
            "llm_calls": self.llm_calls,
            "replayed_batches": self.replayed_batches,
            "primes": self.primes,
            "replans": self.replans,
            "plan_steps": self.plan_steps,
            "duplicate_rows_seen": self.duplicate_rows_seen,
            "seconds": round(self.seconds, 6),
        }


class StreamingCleaner:
    """Incremental cleaning of a micro-batched table stream.

    Typical use::

        stream = StreamingCleaner("events")
        for batch in batches:                   # Tables with one shared schema
            result = stream.process_batch(batch)
            emit(result.added, result.retracted_row_ids)
        full = stream.cleaned_table()           # cumulative cleaned output

    ``detect_drift=False`` turns the engine into a pure replayer: after the
    priming batch it never calls the LLM again (asserted), which is the mode
    the streaming-vs-whole-table parity tests pin.

    ``prime_rows`` sets the priming window: the engine buffers micro-batches
    (emitting nothing) until that many rows arrived, then primes on exactly
    the first ``prime_rows`` rows and replays the rest — so the derived plan
    is *independent of how the stream was partitioned*.  ``0`` (default)
    primes on the first non-empty batch, whatever its size.  The priming
    window must be large enough to be statistically representative of the
    stream; the drift detector guards that assumption afterwards.
    """

    def __init__(
        self,
        name: str = "stream",
        llm: Optional[LLMClient] = None,
        config: Optional[CleaningConfig] = None,
        hil: Optional[HumanInTheLoop] = None,
        detect_drift: bool = True,
        drift_config: Optional[DriftConfig] = None,
        prime_rows: int = 0,
    ):
        self.name = name
        self.llm = llm if llm is not None else SimulatedSemanticLLM()
        self.config = config or CleaningConfig()
        self.hil = hil or AutoApprove()
        if prime_rows < 0:
            raise ValueError(f"prime_rows must be >= 0, got {prime_rows}")
        self.prime_rows = prime_rows
        self.detector: Optional[DriftDetector] = (
            DriftDetector(drift_config) if detect_drift else None
        )
        self.plan: Optional[CleaningPlan] = None
        self.batch_results: List[StreamBatchResult] = []
        self.stats = StreamStats()
        # Cell-level audit trail of the whole stream: row-local replay records
        # every strict cell change per plan step, table-level folds record
        # drops/retractions; a re-plan resets and rebuilds it, so the recorder
        # always explains exactly the current cumulative output.
        self.lineage = LineageRecorder(phase="replay")

        self._schema: Optional[List[Tuple[str, ColumnType]]] = None
        self._next_row_id = 0
        # Accumulated raw values, one list per column in schema order.
        # Appended in place per batch (O(batch)); a Table is materialised
        # lazily only where a whole-history pass happens anyway (prime,
        # re-plan) — concatenating Tables per batch would be O(total rows).
        self._raw_values: Optional[List[List[Any]]] = None
        self._raw_profiles: Dict[str, MergeableColumnProfile] = {}
        self._duplicates = IncrementalDuplicateState()
        self._table_state: Optional[TableLevelState] = None
        self._cleaned_dtypes: Optional[List[ColumnType]] = None
        self._replans = 0

    # -- public API ---------------------------------------------------------------
    def process_batch(self, batch: Table) -> StreamBatchResult:
        """Ingest one micro-batch and return its delta on the cleaned output."""
        started = time.perf_counter()
        self._check_schema(batch)
        first_row_id = self._next_row_id
        self._next_row_id += batch.num_rows
        self._ingest_raw(batch)
        with obs_span(
            "stream.batch",
            stream=self.name,
            batch_index=len(self.batch_results),
            rows_in=batch.num_rows,
        ) as sp:
            result = self._dispatch_batch(batch, first_row_id)
            if result.primed:
                phase = "prime"
            elif result.replayed:
                phase = "replay"
            elif result.drifted_columns:
                phase = "replan"
            else:
                phase = "buffer"
            sp.annotate(phase=phase, llm_calls=result.llm_calls)
        return self._finish(result, started)

    def _dispatch_batch(self, batch: Table, first_row_id: int) -> StreamBatchResult:
        """Route one ingested batch to its phase: buffer, prime, replay or re-plan."""
        if self.plan is None:
            available = self._raw_row_count()
            if available == 0 or available < self.prime_rows:
                return StreamBatchResult(
                    batch_index=len(self.batch_results),
                    rows_in=batch.num_rows,
                    first_row_id=first_row_id,
                    buffered=available > 0,
                )
            with obs_span("stream.prime", window_rows=available):
                return self._prime(batch, first_row_id)

        drifts: List[ColumnDrift] = []
        drifted: List[str] = []
        if self.detector is not None:
            with obs_span("stream.drift") as sp:
                drifts = self.detector.assess(self._raw_profiles)
                drifted = [d.column for d in drifts if d.drifted]
                sp.annotate(columns_assessed=len(drifts), drifted=len(drifted))
        if drifted:
            with obs_span("stream.replan", drifted_columns=",".join(drifted)):
                result = self._replan(batch, first_row_id, drifted)
        else:
            with obs_span("stream.replay"):
                result = self._replay(batch, first_row_id)
        result.drift = drifts
        result.drifted_columns = drifted
        return result

    def cleaned_table(self) -> Table:
        """The cumulative cleaned output, in original row order."""
        if self._table_state is None or self._schema is None:
            return Table(self.name, [])
        survivors = self._table_state.survivors
        ordered_ids = sorted(survivors)
        names = [name for name, _ in self._schema]
        dtypes = self._cleaned_dtypes or [dtype for _, dtype in self._schema]
        columns = [
            Column(name, [survivors[row_id][j] for row_id in ordered_ids], dtypes[j])
            for j, name in enumerate(names)
        ]
        return Table(self.name, columns)

    def reset(self) -> None:
        """Forget the plan and all state; the next batch primes afresh."""
        self.plan = None
        self._schema = None
        self._next_row_id = 0
        self._raw_values = None
        self._raw_profiles = {}
        self._duplicates = IncrementalDuplicateState()
        self._table_state = None
        self._cleaned_dtypes = None
        self.lineage.reset()
        self.lineage.phase = "replay"

    # -- phases ------------------------------------------------------------------
    def _prime(self, batch: Table, first_row_id: int) -> StreamBatchResult:
        calls_before = self.llm.call_count
        # Prime on exactly the first prime_rows rows (or everything ingested
        # so far when no window was configured), so the derived plan does not
        # depend on how those rows were sliced into micro-batches.
        raw = self._raw_table()
        window = raw.num_rows if self.prime_rows <= 0 else self.prime_rows
        prime_table = raw if window >= raw.num_rows else raw.take(list(range(window)))
        cleaner = CocoonCleaner(llm=self.llm, config=self.config, hil=self.hil)
        priming = cleaner.clean(prime_table.rename(self.name))
        self.plan = extract_plan(priming)
        self._table_state = TableLevelState(self.plan.table_level_steps, self.plan.column_names)
        if self.detector is not None:
            # The live profiles already counted the window (and shaped its
            # values); a window shorter than the ingest re-counts its rows.
            self.detector.set_baseline(
                self._raw_profiles
                if prime_table is raw
                else {c.name: self._raw_profiles[c.name].prefix(c) for c in prime_table.columns}
            )
        # Feed every ingested row (priming window plus any straddle) through
        # the same replay path later batches take, so the cross-batch state
        # sees a uniform history.
        rows = self._replay_rows(self._with_row_ids(raw, 0))
        delta = self._table_state.apply_batch(rows)
        self._record_removals(delta)
        self.stats.primes += 1
        return StreamBatchResult(
            batch_index=len(self.batch_results),
            rows_in=batch.num_rows,
            first_row_id=first_row_id,
            added=delta.kept,
            dropped_row_ids=delta.dropped_row_ids,
            retracted_row_ids=delta.retracted_row_ids,
            llm_calls=self.llm.call_count - calls_before,
            primed=True,
        )

    def _replay(self, batch: Table, first_row_id: int) -> StreamBatchResult:
        calls_before = self.llm.call_count
        rows = self._replay_rows(self._with_row_ids(batch, first_row_id))
        delta = self._table_state.apply_batch(rows)
        self._record_removals(delta)
        llm_calls = self.llm.call_count - calls_before
        if llm_calls:  # pragma: no cover - guarded invariant
            raise AssertionError(
                f"Plan replay made {llm_calls} LLM calls; replay must be LLM-free"
            )
        self.stats.replayed_batches += 1
        return StreamBatchResult(
            batch_index=len(self.batch_results),
            rows_in=batch.num_rows,
            first_row_id=first_row_id,
            added=delta.kept,
            dropped_row_ids=delta.dropped_row_ids,
            retracted_row_ids=delta.retracted_row_ids,
            llm_calls=0,
            replayed=True,
        )

    def _replan(self, batch: Table, first_row_id: int, drifted: List[str]) -> StreamBatchResult:
        """Re-prompt the drifted columns only, splice, and rebuild the output."""
        calls_before = self.llm.call_count
        fresh: List[PlanStep] = []
        for column in drifted:
            fresh.extend(self._replan_column(column))
        self.plan = self._splice(self.plan, drifted, fresh)
        if self.detector is not None:
            self.detector.set_baseline(
                {name: self._raw_profiles[name] for name in drifted}
            )
        # Rebuild the cumulative output under the new plan and surface the
        # difference as retractions + (re-)additions.  Lineage restarts too:
        # the old records explain an output the new plan just rewrote, so the
        # rebuild re-records every surviving cell under the ``replan`` phase.
        previous = self._table_state.survivors if self._table_state else {}
        self._table_state = TableLevelState(self.plan.table_level_steps, self.plan.column_names)
        self.lineage.reset()
        self.lineage.phase = "replan"
        try:
            rows = self._replay_rows(self._with_row_ids(self._raw_table(), 0))
            rebuild_delta = self._table_state.apply_batch(rows)
            self._record_removals(rebuild_delta, previous_survivors=previous)
        finally:
            self.lineage.phase = "replay"
        current = self._table_state.survivors
        added = [
            (row_id, row)
            for row_id, row in sorted(current.items())
            if row_id not in previous or previous[row_id] != row
        ]
        retracted = [row_id for row_id in sorted(previous) if row_id not in current]
        batch_ids = set(range(first_row_id, first_row_id + batch.num_rows))
        dropped = sorted(batch_ids - set(current))
        self._replans += 1
        self.stats.replans += 1
        return StreamBatchResult(
            batch_index=len(self.batch_results),
            rows_in=batch.num_rows,
            first_row_id=first_row_id,
            added=added,
            dropped_row_ids=dropped,
            retracted_row_ids=retracted,
            llm_calls=self.llm.call_count - calls_before,
        )

    # -- helpers -------------------------------------------------------------------
    def _check_schema(self, batch: Table) -> None:
        schema = [(c.name, c.dtype) for c in batch.columns]
        if ROW_ID_COLUMN in batch.column_names:
            raise ValueError(f"Batches must not carry the internal {ROW_ID_COLUMN} column")
        if self._schema is None:
            if not schema:
                raise ValueError("First batch must define at least one column")
            self._schema = schema
        elif schema != self._schema:
            raise ValueError(
                f"Batch schema {schema} does not match the stream schema {self._schema}"
            )

    def _ingest_raw(self, batch: Table) -> None:
        if self._raw_values is None:
            self._raw_values = [list(c.values) for c in batch.columns]
            for column in batch.columns:
                self._raw_profiles[column.name] = MergeableColumnProfile(column.name)
        else:
            for values, column in zip(self._raw_values, batch.columns):
                values.extend(column.values)
        for column in batch.columns:
            self._raw_profiles[column.name].update(column)
        self._duplicates.update(batch)

    def _raw_row_count(self) -> int:
        return len(self._raw_values[0]) if self._raw_values else 0

    def _raw_table(self) -> Table:
        """Materialise the accumulated raw rows as a Table (O(total rows))."""
        if self._raw_values is None or self._schema is None:
            return Table(self.name, [])
        return Table(
            self.name,
            [
                Column(name, values, dtype)
                for (name, dtype), values in zip(self._schema, self._raw_values)
            ],
        )

    @staticmethod
    def _with_row_ids(table: Table, first_row_id: int) -> Table:
        row_ids = Column(
            ROW_ID_COLUMN,
            list(range(first_row_id, first_row_id + table.num_rows)),
            ColumnType.INTEGER,
        )
        return Table(table.name, [row_ids] + list(table.columns))

    def _replay_rows(self, batch_with_ids: Table) -> List[Tuple[int, Row]]:
        """Row-local replay of a batch; returns (row_id, data values) pairs."""
        replayed = self.plan.replay_row_local(batch_with_ids, lineage=self.lineage)
        self._cleaned_dtypes = [
            c.dtype for c in replayed.columns if c.name != ROW_ID_COLUMN
        ]
        ids = replayed.column(ROW_ID_COLUMN).values
        data_columns = [replayed.column(name).values for name in self.plan.column_names]
        # zip(*) transposes the column vectors in one pass instead of
        # indexing every cell individually.
        if not data_columns:
            return [(int(row_id), ()) for row_id in ids]
        return [(int(row_id), row) for row_id, row in zip(ids, zip(*data_columns))]

    def _record_removals(
        self,
        delta: TableLevelDelta,
        previous_survivors: Optional[Dict[int, Row]] = None,
    ) -> None:
        """Record a fold delta's drops/retractions into the stream's lineage.

        Each removal is attributed to the table-level step that actually
        filtered the row (``delta.removed_by_step``).  During a re-plan
        rebuild the fresh fold reports every non-surviving row as "dropped";
        ``previous_survivors`` reclassifies the ones the stream had already
        emitted as retractions.
        """
        steps = self._table_state.steps if self._table_state else []
        previous = previous_survivors or {}
        # A retraction upstream can resurface a row removed earlier; its stale
        # removal records must go before this delta's removals are written.
        self.lineage.discard_removals(row_id for row_id, _ in delta.kept)
        removals = [(row_id, "dropped") for row_id in delta.dropped_row_ids]
        removals.extend((row_id, "retracted") for row_id in delta.retracted_row_ids)
        for row_id, mode in removals:
            if previous_survivors is not None and mode == "dropped" and row_id in previous:
                mode = "retracted"
            index = delta.removed_by_step.get(row_id)
            step = steps[index] if index is not None and index < len(steps) else None
            if step is None and steps:
                step = steps[-1]
            self.lineage.record_removal(
                row_id,
                operator=step.issue_type if step else "table_level",
                target=step.target if step else self.name,
                kind=step.kind if step else "",
                step_id=step.step_id if step else "",
                mode=mode,
            )

    def _replan_column(self, column: str) -> List[PlanStep]:
        """Re-run the column-level operators for one drifted column.

        Column-level operators only read their own column's profile, so
        running them on a two-column (row-id, column) projection of the
        accumulated raw rows reproduces exactly what a full re-prime would
        decide for that column.
        """
        base = CocoonCleaner._sanitise_name(f"{self.name}_replan{self._replans}_{column}")
        names = [name for name, _ in self._schema]
        index = names.index(column)
        dtype = self._schema[index][1]
        row_count = self._raw_row_count()
        projection = Table(
            base,
            [
                Column(ROW_ID_COLUMN, list(range(row_count)), ColumnType.INTEGER),
                Column(column, self._raw_values[index], dtype),
            ],
        )
        db = Database(name=base)
        db.register(projection, replace=True)
        context = CleaningContext(db, self.llm, base, config=self.config)
        issues = [i for i in COLUMN_LEVEL_ISSUES if self.config.issue_enabled(i)]
        results = run_operators(context, self.hil, operators=default_operators(issues))
        return [r.step for r in results if r.step is not None]

    @staticmethod
    def _splice(plan: CleaningPlan, drifted: List[str], fresh: List[PlanStep]) -> CleaningPlan:
        """Replace the drifted columns' column-level steps with fresh ones.

        The rebuilt prefix is ordered (issue rank, column rank) — the exact
        order the whole-table workflow generates steps in — so undrifted
        steps keep their relative order and new steps slot in canonically.
        FD and table-level steps are reused unchanged.
        """
        drifted_set = set(drifted)
        column_rank = {name: i for i, name in enumerate(plan.column_names)}
        column_level = [
            s
            for s in plan.steps
            if s.kind in _COLUMN_STEP_KINDS and s.payload["column"] not in drifted_set
        ]
        column_level.extend(fresh)
        column_level.sort(
            key=lambda s: (_ISSUE_RANK[s.issue_type], column_rank[s.payload["column"]])
        )
        fd_steps = [s for s in plan.steps if s.kind == "fd_map"]
        return CleaningPlan(
            base_table=plan.base_table,
            column_names=list(plan.column_names),
            steps=column_level + fd_steps + plan.table_level_steps,
            llm_calls_invested=plan.llm_calls_invested,
        )

    def _finish(self, result: StreamBatchResult, started: float) -> StreamBatchResult:
        result.seconds = time.perf_counter() - started
        result.cumulative_rows_emitted = (
            self._table_state.survivor_count if self._table_state is not None else 0
        )
        self.batch_results.append(result)
        stats = self.stats
        stats.batches += 1
        stats.rows_ingested += result.rows_in
        stats.rows_emitted = result.cumulative_rows_emitted
        stats.rows_dropped += len(result.dropped_row_ids)
        stats.retractions += len(result.retracted_row_ids)
        stats.llm_calls += result.llm_calls
        stats.plan_steps = len(self.plan.steps) if self.plan else 0
        stats.duplicate_rows_seen = self._duplicates.duplicate_rows
        stats.seconds += result.seconds
        return result
