"""Outside-in per-layer split: wrap each layer's entry points, sum self time.

The traced arm of the benchmark wraps the public entry points of every
``repro`` layer from here — no file of the program changes.  Each wrapped
call opens a span on a private in-memory :class:`repro.obs.trace.Tracer`
(the program's own spans go to the process-default tracer and are not
touched).  A span opened on a thread with no open span joins the current
operation's trace through ``parent_ref``, so work a server thread does for
the client's job lands in that job's tree.

A span's *self time* is its wall time minus the part of its interval its
children cover; summing self time by layer splits an operation's wall time
across the layers, with the operation's root span taking what no wrapped
entry point covers.

The untraced arm never calls :meth:`Instrument.install`;
:func:`assert_pristine` checks that every entry point is the program's own
function.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import Tracer

_MARK = "__perfbench_wrapped__"

#: Modules whose bindings are patched; importing them first makes sure every
#: ``from x import f`` alias exists before the wrappers go in.
_MODULES = (
    "repro.core.pipeline",
    "repro.stream.engine",
    "repro.service.scheduler",
    "repro.server.gateway",
    "repro.server.http",
)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module:qualname`` and the self-time bucket it feeds."""

    module: str
    qualname: str
    bucket: str
    #: Counter updates run only for the outermost call of the bucket's layer
    #: on a thread (``Database.scalar`` calls ``Database.sql``: one statement;
    #: a caching client's ``complete`` calls its inner model's: one call).
    outer_only: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.bucket}:{self.qualname}"


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("repro.profiling.table_profile", "profile_table", "profiling"),
    EntryPoint("repro.profiling.column_profile", "profile_column", "profiling"),
    EntryPoint("repro.profiling.duplicates", "duplicate_row_count", "profiling"),
    EntryPoint("repro.profiling.duplicates", "duplicate_row_samples", "profiling"),
    EntryPoint("repro.profiling.patterns", "pattern_counts", "profiling"),
    EntryPoint("repro.profiling.patterns", "match_fraction", "profiling"),
    EntryPoint("repro.profiling.patterns", "non_matching_values", "profiling"),
    EntryPoint("repro.profiling.fd", "discover_fds", "profiling.fd"),
    EntryPoint("repro.profiling.fd", "fd_violation_groups", "profiling.fd"),
    EntryPoint("repro.profiling.mergeable", "MergeableColumnProfile.update", "profiling.incremental"),
    EntryPoint("repro.profiling.incremental", "IncrementalFDState.update", "profiling.incremental"),
    EntryPoint("repro.profiling.incremental", "IncrementalDuplicateState.update", "profiling.incremental"),
    EntryPoint("repro.llm.base", "LLMClient.complete", "llm", outer_only=True),
    EntryPoint("repro.sql.database", "Database.sql", "sql", outer_only=True),
    EntryPoint("repro.sql.database", "Database.scalar", "sql", outer_only=True),
    EntryPoint("repro.sql.database", "Database.column_values", "sql", outer_only=True),
    EntryPoint("repro.dataframe.column", "Column.__init__", "dataframe"),
    EntryPoint("repro.dataframe.schema", "infer_type", "dataframe"),
    EntryPoint("repro.dataframe.io", "read_csv_text", "dataframe"),
    EntryPoint("repro.dataframe.io", "to_csv_text", "dataframe"),
    EntryPoint("repro.core.operators.base", "strict_table_edits", "lineage"),
    EntryPoint("repro.obs.lineage", "LineageRecorder.record_edit", "lineage"),
    EntryPoint("repro.obs.lineage", "LineageRecorder.record_removal", "lineage"),
    EntryPoint("repro.obs.lineage", "LineageRecorder.record_step_edits", "lineage"),
    EntryPoint("repro.core.operators.base", "diff_tables", "core.diff"),
    EntryPoint("repro.core.plan", "CleaningPlan.replay_row_local", "core.replay"),
    EntryPoint("repro.core.pipeline", "CocoonCleaner.clean", "core"),
    EntryPoint("repro.stream.engine", "StreamingCleaner.process_batch", "core"),
    EntryPoint("repro.stream.drift", "DriftDetector.assess", "stream.drift"),
    EntryPoint("repro.stream.state", "TableLevelState.apply_batch", "stream.state"),
)


def _resolve_owner(point: EntryPoint) -> Tuple[Any, str]:
    module = importlib.import_module(point.module)
    owner: Any = module
    *path, attr = point.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(point: EntryPoint) -> List[Tuple[Any, str, Any]]:
    """Every ``(owner, attribute, value)`` that binds this entry point.

    A method has one binding, on its class.  A module function is also bound
    in every module that imported it by name (``core.context`` calls
    ``profile_table`` through its own alias), so all of those are found.
    """
    owner, attr = _resolve_owner(point)
    original = vars(owner)[attr]
    if isinstance(owner, type):
        return [(owner, attr, original)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key, original))
    return found


def current_bindings() -> Dict[Tuple[int, str], Any]:
    """``(id(owner), attribute) -> value`` for every entry-point binding now."""
    for module in _MODULES:
        importlib.import_module(module)
    return {
        (id(owner), attr): value
        for point in ENTRY_POINTS
        for owner, attr, value in _bindings(point)
    }


def assert_pristine() -> None:
    """Raise unless every entry point, under every alias, is the program's own callable."""
    for (_, attr), value in current_bindings().items():
        if getattr(value, _MARK, False):
            raise AssertionError(f"{attr} is wrapped by the traced arm")
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                if getattr(value, _MARK, False):
                    raise AssertionError(f"{name}.{attr} is wrapped by the traced arm")


def _column_key(column: Any) -> int:
    try:
        return hash(tuple(column.values))
    except TypeError:
        return hash(repr(column.values))


def _count_profile_column(inst: "Instrument", args: tuple, result: Any) -> None:
    inst.counts["profiling.column_profiles"] += 1
    inst.column_contents.add(_column_key(args[0]))


def _count_llm(inst: "Instrument", args: tuple, result: Any) -> None:
    inst.counts["llm.calls"] += 1
    inst.counts["llm.tokens"] += result.usage.total_tokens
    hit = args[0].history[-1].cache_hit if args[0].history else None
    if hit is not None:
        inst.counts["llm.cache_lookups"] += 1
        inst.counts["llm.cache_hits"] += int(hit)


def _count_sql(inst: "Instrument", args: tuple, result: Any) -> None:
    inst.counts["sql.statements"] += 1
    if result is None:
        return
    if isinstance(result, list):
        inst.counts["sql.rows_out"] += len(result)
    elif hasattr(result, "num_rows"):
        inst.counts["sql.rows_out"] += result.num_rows
    else:
        inst.counts["sql.rows_out"] += 1


def _counter(key: str) -> Callable[["Instrument", tuple, Any], None]:
    def count(inst: "Instrument", args: tuple, result: Any) -> None:
        inst.counts[key] += 1

    return count


#: Work counters recorded at the entry points, keyed by ``qualname``.
_ON_CALL: Dict[str, Callable[["Instrument", tuple, Any], None]] = {
    "profile_table": _counter("profiling.table_profiles"),
    "profile_column": _count_profile_column,
    "discover_fds": _counter("profiling.fd_runs"),
    "LLMClient.complete": _count_llm,
    "Database.sql": _count_sql,
    "Database.scalar": _count_sql,
    "Database.column_values": _count_sql,
    "Column.__init__": _counter("dataframe.columns_built"),
    "LineageRecorder.record_edit": _counter("lineage.records"),
    "LineageRecorder.record_removal": _counter("lineage.records"),
}


@dataclass
class SpanRecord:
    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float

    @property
    def bucket(self) -> str:
        return self.name.split(":", 1)[0]

    def to_json(self, operation: int) -> str:
        return json.dumps(
            {
                "op": operation,
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "end": self.end,
            }
        )


class Instrument:
    """The traced arm: entry-point wrappers plus a private span store."""

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=False, max_traces=4)
        self.counts: Counter = Counter()
        self.column_contents: set = set()
        self.failed_llm_calls = 0
        self._root_ref = None
        self._patched: List[Tuple[Any, str, Any]] = []
        self._wrappers: Optional[List[Tuple[Any, str, Any, Callable]]] = None
        self._local = threading.local()

    # -- wrappers ---------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        if self._wrappers is None:
            # Traced operations alternate with untraced ones, so wrappers go
            # in and out many times; find the bindings and build them once.
            for module in _MODULES:
                importlib.import_module(module)
            self._wrappers = [
                (owner, attr, original, self._wrap(point, original))
                for point in ENTRY_POINTS
                for owner, attr, original in _bindings(point)
            ]
        for owner, attr, original, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    @contextmanager
    def installed(self) -> Iterator["Instrument"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = defaultdict(int)
        return depths

    def _wrap(self, point: EntryPoint, original: Callable) -> Callable:
        span = self.tracer.span
        name = point.span_name
        layer = point.bucket.split(".", 1)[0]
        on_call = _ON_CALL.get(point.qualname)
        outer_only = point.outer_only
        inst = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            root = inst._root_ref
            if root is None:
                return original(*args, **kwargs)
            depths = inst._depths()
            outer = depths[layer] == 0
            depths[layer] += 1
            try:
                with span(name, parent_ref=root):
                    result = original(*args, **kwargs)
            except Exception:
                if layer == "llm" and outer:
                    inst.failed_llm_calls += 1
                raise
            finally:
                depths[layer] -= 1
            if on_call is not None and (outer or not outer_only):
                on_call(inst, args, result)
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", point.qualname)
        return wrapper

    # -- operations ---------------------------------------------------------------
    @contextmanager
    def operation(self, root_name: str) -> Iterator[None]:
        """Trace one operation; its spans are read with :meth:`take_spans`."""
        self.column_contents.clear()
        with self.tracer.span(root_name, force=True, trace_id="op") as root:
            self._root_ref = root.ref()
            try:
                yield
            finally:
                self._root_ref = None
                # A column profiled twice with the same values within one
                # operation is wasted work; across operations it is not.
                self.counts["profiling.distinct_columns"] += len(self.column_contents)

    def take_spans(self) -> List[SpanRecord]:
        """Flatten and forget the last operation's span fragments."""
        records: List[SpanRecord] = []

        def visit(span: Any) -> None:
            records.append(
                SpanRecord(
                    span.name,
                    span.span_id,
                    span.parent_id,
                    span.started_at,
                    span.started_at + span.wall_seconds,
                )
            )
            for child in span.children:
                visit(child)

        for fragment in self.tracer.fragments("op"):
            visit(fragment)
        self.tracer.clear()
        return records


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[SpanRecord]) -> Dict[str, float]:
    """Seconds of self time per bucket over one operation's span tree.

    Children on other threads (a server worker's clean under the client's
    job) can overlap each other; a parent loses the union of its children's
    intervals, counted once.  Each overlapping child still keeps its own
    self time, so overlap is the one way the buckets can exceed the root's
    wall time — which ``bench.unattributed_ratio`` bounds.
    """
    children: Dict[Optional[int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        wall = span.end - span.start
        totals[span.bucket] += wall - _covered(children.get(span.span_id, []), span.start, span.end)
    return dict(totals)


class SpanLog:
    """Appends every traced operation's spans to one JSONL file."""

    def __init__(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self._handle = path.open("w", encoding="utf-8")
        self._operations = 0

    def write(self, spans: List[SpanRecord]) -> None:
        self._operations += 1
        for span in spans:
            self._handle.write(span.to_json(self._operations) + "\n")

    def close(self) -> None:
        self._handle.close()
