"""Cell-level lineage: why every cell the cleaner touched changed.

PR 6 made the *process* observable (spans, metrics); this module makes the
*data plane* observable.  A :class:`LineageRecorder` rides inside one
cleaning run — threaded through the pipeline, every operator's SQL
application, :meth:`repro.core.plan.CleaningPlan.replay_row_local` and the
streaming engine — and emits one **lineage record per changed cell**:

=================  ==========================================================
field              meaning
=================  ==========================================================
``event``          ``"edit"`` (a cell rewrite) or ``"remove"`` (a row the
                   table-level steps dropped or retracted)
``row_id``         the hidden ``_cocoon_row_id`` carried through the SQL chain
``column``         the rewritten column (``None`` for removals)
``before/after``   the cell value either side of the step (strict predicate:
                   a change in surface representation *is* a change)
``operator``       the issue type that decided it (``string_outliers`` …)
``target``         the operator's target label (column, FD pair, table)
``kind``           the plan-step kind (``value_map``, ``cast``, ``dedup`` …)
``step_id``        stable digest of the decision — identical for the batch
                   application and every later plan replay of the same step
``phase``          ``batch`` | ``replay`` | ``replan`` — which execution
                   path produced the record
``decision``       the step payload (the mapping/threshold/cast the LLM
                   chose, or the reviewer's edit)
``llm``            the LLM calls behind the decision: prompt cache key,
                   cache hit/miss, purpose (empty for LLM-free replay)
``trace_id/span_id``  the enclosing :mod:`repro.obs.trace` span, when traced
``mode``           for removals: ``dropped`` (lost a QUALIFY) or
                   ``retracted`` (displaced after having been emitted)
=================  ==========================================================

The correctness contract (pinned by ``tests/obs/test_lineage_differential.py``
and the CI ``lineage-differential`` job): for any run, in any path,
:meth:`LineageRecorder.changed_cells` — the per-cell *net* composition of
edit records, restricted to surviving rows — equals exactly the
``strict_differs`` diff between the input and the cleaned output.  No orphan
records, no unexplained changes.

The per-step predicate is deliberately the *strict* one
(:func:`values_strictly_differ`, a dependency-free twin of
``repro.datasets.base.strict_differs``), not the operators' canonical-text
repair predicate: a cast that turns ``'12'`` into ``12.0`` is not a repair,
but it *is* a change the audit trail must explain.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CellEditRecord",
    "LineageRecorder",
    "LineageSchemaError",
    "json_safe_record",
    "lineage_step_id",
    "validate_lineage_lines",
    "validate_lineage_record",
    "values_strictly_differ",
]

#: Execution paths a record can come from.
PHASES = ("batch", "replay", "replan")

#: Removal modes.
REMOVAL_MODES = ("dropped", "retracted")

CellEditRecord = Dict[str, Any]


def _is_null(value: Any) -> bool:
    """SQL NULL semantics (None or NaN) — mirrors ``repro.dataframe.schema.is_null``."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def values_strictly_differ(before: Any, after: Any) -> bool:
    """The strict cell-difference predicate the lineage contract is defined over.

    Identical to :func:`repro.datasets.base.strict_differs` (NULL only equals
    NULL, everything else compares by ``str``), re-implemented here so the
    observability layer stays free of upper-layer imports; the differential
    tests assert the two agree.
    """
    if _is_null(before) and _is_null(after):
        return False
    if _is_null(before) != _is_null(after):
        return True
    return str(before) != str(after)


def lineage_step_id(
    kind: str, issue_type: str, target: str, target_table: str, payload: Dict[str, Any]
) -> str:
    """Stable id of one applied cleaning decision.

    Derived purely from the decision (kind, issue type, target, target table
    and the step payload); :attr:`repro.core.plan.PlanStep.step_id` is the
    one caller, so the batch application and every later replay of the same
    :class:`~repro.core.plan.PlanStep` produce
    bit-identical ids — which is what lets ``explain`` chains line up across
    batch, replay and streaming runs.
    """
    canonical = json.dumps(
        [kind, issue_type, target, target_table, payload],
        sort_keys=True,
        default=str,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class LineageRecorder:
    """Accumulates lineage records for one cleaning run (or one stream).

    Not thread-safe by design: every execution path that records into one
    instance (a pipeline run, one stream engine) is single threaded.
    """

    def __init__(self, phase: str = "batch"):
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
        self.phase = phase
        self.records: List[CellEditRecord] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.records)

    # -- recording ---------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def record_edit(
        self,
        row_id: int,
        column: str,
        before: Any,
        after: Any,
        *,
        operator: str,
        target: str,
        kind: str,
        step_id: str,
        decision: Optional[Dict[str, Any]] = None,
        llm: Optional[Sequence[Dict[str, Any]]] = None,
        span_ref: Optional[Tuple[str, int]] = None,
    ) -> CellEditRecord:
        """Record one changed cell (call only when the change is strict)."""
        record: CellEditRecord = {
            "event": "edit",
            "seq": self._next_seq(),
            "row_id": int(row_id),
            "column": column,
            "before": before,
            "after": after,
            "operator": operator,
            "target": target,
            "kind": kind,
            "step_id": step_id,
            "phase": self.phase,
            "decision": dict(decision) if decision else {},
            "llm": [dict(call) for call in llm] if llm else [],
            "trace_id": span_ref[0] if span_ref else None,
            "span_id": span_ref[1] if span_ref else None,
            "mode": None,
        }
        self.records.append(record)
        return record

    def record_removal(
        self,
        row_id: int,
        *,
        operator: str,
        target: str,
        kind: str,
        step_id: str,
        mode: str = "dropped",
        span_ref: Optional[Tuple[str, int]] = None,
    ) -> CellEditRecord:
        """Record a row the table-level steps dropped or retracted."""
        if mode not in REMOVAL_MODES:
            raise ValueError(f"mode must be one of {REMOVAL_MODES}, got {mode!r}")
        record: CellEditRecord = {
            "event": "remove",
            "seq": self._next_seq(),
            "row_id": int(row_id),
            "column": None,
            "before": None,
            "after": None,
            "operator": operator,
            "target": target,
            "kind": kind,
            "step_id": step_id,
            "phase": self.phase,
            "decision": {},
            "llm": [],
            "trace_id": span_ref[0] if span_ref else None,
            "span_id": span_ref[1] if span_ref else None,
            "mode": mode,
        }
        self.records.append(record)
        return record

    def record_step_edits(
        self,
        edits: Iterable[Tuple[int, str, Any, Any]],
        *,
        operator: str,
        target: str,
        kind: str,
        step_id: str,
        decision: Optional[Dict[str, Any]] = None,
        llm: Optional[Sequence[Dict[str, Any]]] = None,
        span_ref: Optional[Tuple[str, int]] = None,
    ) -> int:
        """Record a batch of ``(row_id, column, before, after)`` edits; returns the count."""
        count = 0
        for row_id, column, before, after in edits:
            self.record_edit(
                row_id,
                column,
                before,
                after,
                operator=operator,
                target=target,
                kind=kind,
                step_id=step_id,
                decision=decision,
                llm=llm,
                span_ref=span_ref,
            )
            count += 1
        return count

    def discard_removals(self, row_ids: Iterable[int]) -> int:
        """Drop removal records for rows that re-entered the output.

        Keep-best table-level folds are non-monotonic: a row dropped earlier
        can resurface when a displacement upstream unshadows it.  Its stale
        removal records would wrongly exclude it from :meth:`changed_cells`,
        so the fold discards them when the row is re-emitted.  Returns the
        number of records discarded.
        """
        ids = set(row_ids) & self.removed_row_ids()
        if not ids:
            return 0
        before = len(self.records)
        self.records = [
            r for r in self.records if not (r["event"] == "remove" and r["row_id"] in ids)
        ]
        return before - len(self.records)

    def reset(self) -> None:
        """Forget everything (a stream re-plan rebuilds lineage from scratch)."""
        self.records = []
        self._seq = 0

    # -- query / explain ---------------------------------------------------------
    def explain(self, row_id: int, column: Optional[str] = None) -> List[CellEditRecord]:
        """The ordered edit chain for one cell (or every record of one row).

        Includes the row's removal record, if any, so a chain always answers
        both "what happened to this value" and "why is this row gone".
        """
        chain = [
            r
            for r in self.records
            if r["row_id"] == row_id
            and (column is None or r["column"] == column or r["event"] == "remove")
        ]
        return sorted(chain, key=lambda r: r["seq"])

    def removed_row_ids(self) -> Set[int]:
        """Rows carrying a removal record (dropped or retracted)."""
        return {r["row_id"] for r in self.records if r["event"] == "remove"}

    def changed_cells(self) -> Dict[Tuple[int, str], Tuple[Any, Any]]:
        """Net per-cell change over all edit records, restricted to surviving rows.

        Composes each cell's edit chain into ``(first before, last after)``
        and keeps only cells whose net change is strict — an ``a → b → a``
        round trip nets out, and cells on removed rows are excluded because
        they do not appear in the cleaned output at all.  This is the set the
        differential gate compares against ``strict_differs(input, output)``.
        """
        removed = self.removed_row_ids()
        first_before: Dict[Tuple[int, str], Any] = {}
        last_after: Dict[Tuple[int, str], Any] = {}
        for record in self.records:
            if record["event"] != "edit" or record["row_id"] in removed:
                continue
            key = (record["row_id"], record["column"])
            if key not in first_before:
                first_before[key] = record["before"]
            last_after[key] = record["after"]
        return {
            key: (first_before[key], last_after[key])
            for key in first_before
            if values_strictly_differ(first_before[key], last_after[key])
        }

    def last_editor(self) -> Dict[Tuple[int, str], str]:
        """(row_id, column) → operator of the last edit record (attribution)."""
        editor: Dict[Tuple[int, str], str] = {}
        for record in self.records:
            if record["event"] == "edit":
                editor[(record["row_id"], record["column"])] = record["operator"]
        return editor

    def census(self) -> Dict[str, Dict[str, int]]:
        """Per-operator accounting: raw edit records, net cells, removals."""
        changed = self.changed_cells()
        editor = self.last_editor()
        out: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            entry = out.setdefault(
                record["operator"], {"edits": 0, "net_cells": 0, "removed_rows": 0}
            )
            if record["event"] == "edit":
                entry["edits"] += 1
            else:
                entry["removed_rows"] += 1
        for cell in changed:
            out.setdefault(
                editor[cell], {"edits": 0, "net_cells": 0, "removed_rows": 0}
            )["net_cells"] += 1
        return out

    # -- export ---------------------------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """The JSON document served by ``GET /v1/jobs/{id}/lineage``."""
        return {
            "records": [
                json_safe_record(r) for r in sorted(self.records, key=lambda r: r["seq"])
            ],
            "changed_cells": len(self.changed_cells()),
            "removed_rows": sorted(self.removed_row_ids()),
            "census": self.census(),
        }

    def to_jsonl(self) -> str:
        """One record per line, in sequence order (the exportable audit trail)."""
        lines = [
            json.dumps(record, default=str, sort_keys=True)
            for record in sorted(self.records, key=lambda r: r["seq"])
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def export_jsonl(self, path: Any) -> int:
        """Write the JSONL audit trail to ``path``; returns the record count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(self.records)


# -- schema validation (the lineage twin of schema.py::validate_span) -----------------
class LineageSchemaError(ValueError):
    """A lineage record does not match the documented schema."""


def json_safe_record(record: CellEditRecord) -> CellEditRecord:
    """A copy of ``record`` with non-JSON cell values stringified.

    Cell values are SQL scalars, which includes dates (a ``cast`` step can
    produce ``datetime.date``); JSON transports (the HTTP endpoint, the
    JSONL export) carry those as their ``str`` form — the same form the
    strict predicate compares by, so round-tripping preserves the contract.
    """
    copied = dict(record)
    for field in ("before", "after"):
        if not isinstance(copied[field], (str, int, float, bool, type(None))):
            copied[field] = str(copied[field])
    return copied


_SCALAR_FIELDS = {
    "event": (str,),
    "seq": (int,),
    "row_id": (int,),
    "column": (str, type(None)),
    "operator": (str,),
    "target": (str,),
    "kind": (str,),
    "step_id": (str,),
    "phase": (str,),
    "trace_id": (str, type(None)),
    "span_id": (int, type(None)),
    "mode": (str, type(None)),
}

#: What a cell value may be: JSON scalars plus the executor's date types
#: (stringified on export by :func:`json_safe_record`).
_VALUE_TYPES = (str, int, float, bool, type(None), datetime.date, datetime.datetime)


def validate_lineage_record(doc: Any, path: str = "record") -> None:
    """Raise :class:`LineageSchemaError` unless ``doc`` is a valid lineage record."""
    if not isinstance(doc, dict):
        raise LineageSchemaError(f"{path}: expected an object, got {type(doc).__name__}")
    missing = (set(_SCALAR_FIELDS) | {"before", "after", "decision", "llm"}) - set(doc)
    if missing:
        raise LineageSchemaError(f"{path}: missing fields {sorted(missing)}")
    for field, types in _SCALAR_FIELDS.items():
        value = doc[field]
        if not isinstance(value, types) or isinstance(value, bool):
            raise LineageSchemaError(
                f"{path}.{field}: expected {'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
    if doc["event"] not in ("edit", "remove"):
        raise LineageSchemaError(
            f"{path}.event: must be 'edit' or 'remove', got {doc['event']!r}"
        )
    if doc["phase"] not in PHASES:
        raise LineageSchemaError(f"{path}.phase: must be one of {PHASES}, got {doc['phase']!r}")
    if doc["seq"] < 1:
        raise LineageSchemaError(f"{path}.seq: must be >= 1, got {doc['seq']}")
    if doc["event"] == "edit":
        if doc["column"] is None:
            raise LineageSchemaError(f"{path}: edit records must name a column")
        if doc["mode"] is not None:
            raise LineageSchemaError(f"{path}.mode: only removal records carry a mode")
    else:
        if doc["mode"] not in REMOVAL_MODES:
            raise LineageSchemaError(
                f"{path}.mode: removal records need one of {REMOVAL_MODES}, got {doc['mode']!r}"
            )
    for field in ("before", "after"):
        if not isinstance(doc[field], _VALUE_TYPES):
            raise LineageSchemaError(f"{path}.{field}: non-scalar cell value")
    if not isinstance(doc["decision"], dict):
        raise LineageSchemaError(f"{path}.decision: expected an object")
    llm = doc["llm"]
    if not isinstance(llm, list):
        raise LineageSchemaError(f"{path}.llm: expected an array")
    for i, call in enumerate(llm):
        if not isinstance(call, dict):
            raise LineageSchemaError(f"{path}.llm[{i}]: expected an object")
        call_missing = {"cache_key", "hit", "purpose"} - set(call)
        if call_missing:
            raise LineageSchemaError(f"{path}.llm[{i}]: missing fields {sorted(call_missing)}")
        if not isinstance(call["cache_key"], str):
            raise LineageSchemaError(f"{path}.llm[{i}].cache_key: expected a string")
        if call["hit"] is not None and not isinstance(call["hit"], bool):
            raise LineageSchemaError(f"{path}.llm[{i}].hit: expected true/false/null")
        if not isinstance(call["purpose"], str):
            raise LineageSchemaError(f"{path}.llm[{i}].purpose: expected a string")


def validate_lineage_lines(lines: Iterable[str], source: str = "lineage") -> List[CellEditRecord]:
    """Parse + validate a JSONL lineage stream; returns the records."""
    docs: List[CellEditRecord] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LineageSchemaError(f"{source}:{lineno}: not valid JSON: {exc}")
        validate_lineage_record(doc, path=f"{source}:{lineno}")
        docs.append(doc)
    return docs


def records_from_docs(docs: Iterable[CellEditRecord]) -> LineageRecorder:
    """Rebuild a recorder from exported records (the CLI's read path)."""
    recorder = LineageRecorder()
    ordered = sorted(docs, key=lambda r: r["seq"])
    for doc in ordered:
        copied = dict(doc)
        recorder.records.append(copied)
        recorder._seq = max(recorder._seq, copied["seq"])
    return recorder
