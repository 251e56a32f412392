"""repro.obs — unified tracing and metrics across every layer.

The one observability substrate of the system:

* a process-wide **metrics registry** (:mod:`repro.obs.metrics`) of
  thread-safe ``Counter`` / ``Gauge`` / ``Histogram`` objects with labels,
  snapshot-able as JSON and renderable in Prometheus text format;
* a **tracing API** (:mod:`repro.obs.trace`): ``with obs.span("operator.dmv",
  target=column):`` produces nested spans carrying wall/CPU time and
  LLM-call / cache-hit counters, exportable as JSON lines and retrievable
  per job via ``GET /v1/jobs/{id}/trace``;
* **reports** (:mod:`repro.obs.report`): flame summaries, an ``EXPLAIN
  ANALYZE``-style SQL plan report, and the ``python -m repro.obs`` trace
  file summariser.

Module-level helpers here are the call sites the instrumented layers use —
they are deliberately cheap no-ops while tracing is disabled, so the
pipeline, all eight operators, the SQL executor, the services and the HTTP
server stay instrumented unconditionally (overhead pinned <5% by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    prometheus_gauges_from,
)
from repro.obs.lineage import (
    LineageRecorder,
    LineageSchemaError,
    lineage_step_id,
    validate_lineage_lines,
    validate_lineage_record,
    values_strictly_differ,
)
from repro.obs.trace import NOOP_SPAN, Span, SpanRef, Tracer, get_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LineageRecorder",
    "LineageSchemaError",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "SpanRef",
    "Tracer",
    "configure",
    "current_ref",
    "current_span",
    "get_registry",
    "get_tracer",
    "lineage_step_id",
    "percentile",
    "prometheus_gauges_from",
    "record_cache",
    "record_llm_call",
    "span",
    "validate_lineage_lines",
    "validate_lineage_record",
    "values_strictly_differ",
]


def configure(
    enabled: Optional[bool] = None,
    export_path: Optional[Union[str, Path]] = None,
    max_traces: Optional[int] = None,
) -> Tracer:
    """Adjust the default tracer; only the arguments given are changed."""
    tracer = get_tracer()
    if enabled is not None:
        tracer.enabled = enabled
    if export_path is not None:
        tracer.export_path = Path(export_path)
    if max_traces is not None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        tracer.max_traces = max_traces
    return tracer


def span(
    name: str,
    parent_ref: Optional[SpanRef] = None,
    trace_id: Optional[str] = None,
    force: bool = False,
    **attrs: Any,
):
    """Open a span on the default tracer (see :meth:`Tracer.span`)."""
    return get_tracer().span(
        name, parent_ref=parent_ref, trace_id=trace_id, force=force, **attrs
    )


def current_span() -> Optional[Span]:
    return get_tracer().current()


def current_ref() -> Optional[SpanRef]:
    return get_tracer().current_ref()


# -- instrumentation hooks used by the LLM and cache layers ---------------------
def record_llm_call(purpose: str = "", latency_seconds: float = 0.0) -> None:
    """Fold one LLM call into the active span and the default registry."""
    active = get_tracer().current()
    if active is not None:
        active.count("llm_calls")
        if purpose:
            active.count(f"llm:{purpose}")
    registry = get_registry()
    registry.counter(
        "repro_llm_calls_total",
        help="LLM completions issued, by prompt purpose",
        label_names=("purpose",),
    ).inc(purpose=purpose or "unknown")
    registry.histogram(
        "repro_llm_latency_seconds", help="Latency of individual LLM completions"
    ).observe(latency_seconds)


def record_cache(hit: bool) -> None:
    """Fold one prompt-cache lookup into the active span and the registry."""
    active = get_tracer().current()
    if active is not None:
        active.count("cache_hits" if hit else "cache_misses")
    get_registry().counter(
        "repro_cache_requests_total",
        help="Prompt-cache lookups by outcome",
        label_names=("result",),
    ).inc(result="hit" if hit else "miss")
