"""Nested spans: where one job, query or batch actually spent its time.

A :class:`Span` is one timed region — a pipeline run, one operator, one SQL
plan node, one LLM call — with wall and CPU time, free-form attributes and
roll-up counters (``llm_calls``, ``cache_hits``…).  Spans nest: the
:class:`Tracer` keeps a per-thread stack, so ``with span("operator.dmv")``
inside ``with span("pipeline.clean")`` becomes a child automatically and a
finished root yields the whole tree.

Cross-thread traces (an HTTP request enqueueing a job that a worker thread
executes later) link explicitly: the submitting side captures
:meth:`Tracer.current_ref` and the executing side opens its span with
``parent_ref=...``.  Every finished top-level fragment is filed under its
``trace_id``; :meth:`Tracer.trace_tree` reassembles the fragments into one
tree by span ids — that is what ``GET /v1/jobs/{id}/trace`` serves.

Overhead discipline: with the tracer disabled and no enclosing span,
:meth:`Tracer.span` yields a shared no-op and touches no clock — the whole
instrumentation layer costs one attribute check per call site, which is
what lets tracing stay wired into every operator and plan node
unconditionally (``benchmarks/bench_obs_overhead.py`` pins the enabled cost
under 5%).

Trace files are JSON lines, one finished top-level span tree per line, in
the schema enforced by :mod:`repro.obs.schema` and summarised by
``python -m repro.obs``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Union

from contextlib import contextmanager
from pathlib import Path

_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)


class SpanRef(NamedTuple):
    """A durable pointer to a span, safe to hand across threads."""

    trace_id: str
    span_id: int


class Span:
    """One timed region of work; builds its subtree as children finish."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "started_at",
        "wall_seconds",
        "cpu_seconds",
        "attrs",
        "counters",
        "children",
        "status",
        "error",
        "_t0",
        "_cpu0",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.started_at = time.time()
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.counters: Dict[str, Union[int, float]] = {}
        self.children: List["Span"] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()

    # -- recording --------------------------------------------------------------
    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def count(self, key: str, amount: Union[int, float] = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def ref(self) -> SpanRef:
        return SpanRef(self.trace_id, self.span_id)

    def _finish(self, exc: Optional[BaseException]) -> None:
        self.wall_seconds = time.perf_counter() - self._t0
        self.cpu_seconds = time.thread_time() - self._cpu0
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"

    # -- reading ----------------------------------------------------------------
    def total_count(self, key: str) -> Union[int, float]:
        """A counter aggregated over this span and every descendant."""
        total = self.counters.get(key, 0)
        for child in self.children:
            total += child.total_count(key)
        return total

    @property
    def self_seconds(self) -> float:
        """Wall time not accounted to any child span."""
        return max(0.0, self.wall_seconds - sum(c.wall_seconds for c in self.children))

    def to_dict(self) -> Dict[str, Any]:
        """The documented trace schema (see ``docs/observability.md``)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "status": self.status,
            "error": self.error,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Span({self.name!r}, trace={self.trace_id!r}, wall={self.wall_seconds:.6f}s)"


class _NoopSpan:
    """Shared do-nothing stand-in yielded while tracing is off."""

    __slots__ = ()

    trace_id: Optional[str] = None
    span_id: Optional[int] = None

    def annotate(self, **attrs: Any) -> "_NoopSpan":
        return self

    def count(self, key: str, amount: Union[int, float] = 1) -> None:
        return None

    def ref(self) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Per-thread span stacks plus the process store of finished traces.

    ``enabled`` gates *root creation only*: children of an active span are
    always recorded (so a force-rooted span, such as the HTTP layer's
    ``server.request``, keeps its children even when global tracing is
    off), and a span opened with an explicit ``parent_ref`` joins its trace
    regardless — the submitting side already decided this work is traced.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_traces: int = 256,
        export_path: Optional[Union[str, Path]] = None,
    ):
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.enabled = enabled
        self.max_traces = max_traces
        self.export_path = Path(export_path) if export_path is not None else None
        self._local = threading.local()
        self._lock = threading.Lock()
        # trace_id -> finished top-level span fragments, oldest trace first.
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()

    # -- the per-thread stack ---------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_ref(self) -> Optional[SpanRef]:
        span = self.current()
        return span.ref() if span is not None else None

    # -- span lifecycle ----------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        parent_ref: Optional[SpanRef] = None,
        trace_id: Optional[str] = None,
        force: bool = False,
        **attrs: Any,
    ) -> Iterator[Union[Span, _NoopSpan]]:
        """Open one timed region; yields the live span (or a no-op).

        Resolution order: an enclosing span on this thread makes this a
        child; otherwise an explicit ``parent_ref`` links it into that
        trace; otherwise a new root starts *iff* the tracer is enabled or
        ``force`` is set.  ``trace_id`` names the trace when (and only
        when) this span becomes a root.
        """
        parent = self.current()
        if parent is not None:
            span = Span(name, parent.trace_id, parent_id=parent.span_id, attrs=attrs)
        elif parent_ref is not None:
            span = Span(name, parent_ref.trace_id, parent_id=parent_ref.span_id, attrs=attrs)
        elif self.enabled or force:
            span = Span(name, trace_id or f"trace-{next(_trace_ids)}", attrs=attrs)
        else:
            yield NOOP_SPAN
            return

        stack = self._stack()
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span._finish(exc)
            raise
        else:
            span._finish(None)
        finally:
            stack.pop()
            if parent is not None:
                parent.children.append(span)
            else:
                self._record_fragment(span)

    def attach(self, ref: Optional[SpanRef], name: str, **attrs: Any):
        """Convenience: a child-of-``ref`` span (root rules apply when None)."""
        return self.span(name, parent_ref=ref, **attrs)

    # -- the finished-trace store -------------------------------------------------
    def _record_fragment(self, span: Span) -> None:
        line: Optional[str] = None
        if self.export_path is not None:
            line = json.dumps(span.to_dict(), default=str)
        with self._lock:
            fragments = self._traces.get(span.trace_id)
            if fragments is None:
                fragments = self._traces[span.trace_id] = []
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            fragments.append(span)
            if line is not None:
                self.export_path.parent.mkdir(parents=True, exist_ok=True)
                with self.export_path.open("a", encoding="utf-8") as handle:
                    handle.write(line + "\n")

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def has_trace(self, trace_id: str) -> bool:
        with self._lock:
            return trace_id in self._traces

    def fragments(self, trace_id: str) -> List[Span]:
        with self._lock:
            return list(self._traces.get(trace_id, []))

    def trace_tree(self, trace_id: str) -> List[Dict[str, Any]]:
        """Reassemble a trace's fragments into root trees (as dicts).

        Fragments finished on different threads carry ``parent_id`` links;
        any fragment whose parent is present is nested under it, the rest
        are roots (e.g. the ``server.request`` span, or an orphan whose
        parent has not finished yet).  Roots sort by start time.
        """
        fragments = self.fragments(trace_id)
        docs = [fragment.to_dict() for fragment in fragments]
        by_id = {doc["span_id"]: doc for doc in docs}

        def index(doc: Dict[str, Any]) -> None:
            for child in doc["children"]:
                by_id[child["span_id"]] = child
                index(child)

        for doc in list(docs):
            index(doc)
        roots: List[Dict[str, Any]] = []
        for doc in docs:
            parent = by_id.get(doc["parent_id"]) if doc["parent_id"] is not None else None
            if parent is not None and parent is not doc:
                parent["children"].append(doc)
            else:
                roots.append(doc)
        roots.sort(key=lambda d: d["started_at"])
        return roots

    def clear(self) -> None:
        """Forget every finished trace (test isolation helper)."""
        with self._lock:
            self._traces.clear()


_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer every instrumented layer reports to."""
    return _default_tracer
