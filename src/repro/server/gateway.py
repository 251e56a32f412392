"""The gateway application object: HTTP-shaped operations, no sockets.

:class:`CleaningGateway` is everything the server does, expressed as plain
methods over JSON-able dicts — the HTTP layer (:mod:`repro.server.http`)
only routes, decodes and encodes.  Keeping the two apart makes the gateway
unit-testable without binding a port and reusable behind any other
transport.

Wiring (the point of the layer):

* one shared :class:`~repro.llm.cache.PromptCacheStore` backs *both* the
  batch service's per-job clients and every stream's cleaner, so network
  traffic amortises LLM calls exactly like in-process callers do;
* the batch :class:`~repro.service.CleaningService` runs with bounded
  admission (``max_pending_jobs``) and its by-id job registry, so jobs are
  addressable across requests and a flooded service answers 429 instead of
  queueing without bound;
* streams are created on first use through the
  :meth:`~repro.stream.service.StreamService.get_or_create_stream`
  registry; a full stream queue raises
  :class:`~repro.stream.StreamBackpressure`, which the HTTP layer maps to
  429 with a ``Retry-After`` hint.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.core.context import CleaningConfig
from repro.dataframe.io import read_csv_text, to_csv_text
from repro.dataframe.table import Table
from repro.llm.cache import CachingLLMClient, PromptCacheStore
from repro.llm.simulated import SimulatedSemanticLLM
from repro.obs import current_ref, get_tracer
from repro.obs.lineage import json_safe_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import get_registry as get_default_registry
from repro.service.jobs import JobStatus
from repro.service.scheduler import CleaningService
from repro.stream.service import StreamService

#: Request-level events the gateway always reports, even at zero.  Jobs and
#: batches are counted by the services that accept them.
_EVENT_KEYS = ("requests", "rejected_saturated", "rejected_backpressure")

#: The fields ``POST /v1/jobs`` accepts; any other field answers 400.
_JOB_FIELDS = frozenset({"csv", "columns", "name", "priority"})


class BadRequest(ValueError):
    """The request payload cannot be turned into work (HTTP 400)."""


class ResultNotReady(RuntimeError):
    """The job exists but has not reached a terminal state yet (HTTP 409)."""


class CleaningGateway:
    """Batch + stream cleaning behind one application facade.

    Parameters mirror the two underlying services; ``llm_factory`` defaults
    to the deterministic :class:`~repro.llm.simulated.SimulatedSemanticLLM`
    so the server runs offline, and ``retry_after_seconds`` is the hint sent
    with every 429.
    """

    def __init__(
        self,
        workers: int = 4,
        stream_workers: int = 2,
        max_pending_jobs: Optional[int] = 64,
        max_pending_batches: int = 4,
        llm_factory: Optional[Callable[[], Any]] = None,
        config: Optional[CleaningConfig] = None,
        cache_path: Optional[Union[str, Path]] = None,
        cache_flush_every: int = 32,
        retry_after_seconds: float = 1.0,
        tracing: bool = True,
        stream_prime_rows: int = 0,
    ):
        self.llm_factory = llm_factory or SimulatedSemanticLLM
        self.retry_after_seconds = retry_after_seconds
        #: Per-request tracing: the HTTP layer forces a ``server.request``
        #: root for every request when this is set, and the trace follows the
        #: job through service → pipeline → operators → SQL plan nodes.
        self.tracing = tracing
        # One private registry per gateway; both underlying services fold
        # their metrics into it, so one Prometheus scrape covers the whole
        # process.
        self.registry = MetricsRegistry()
        self.cache = PromptCacheStore(cache_path, flush_every=cache_flush_every)
        self.service = CleaningService(
            workers=workers,
            llm_factory=self.llm_factory,
            config=config,
            cache_store=self.cache,
            max_pending_jobs=max_pending_jobs,
            metrics_registry=self.registry,
        )
        # Stream cleaners write through the same shared store as batch jobs.
        self.streams = StreamService(
            workers=stream_workers,
            max_pending_batches=max_pending_batches,
            config=config,
            llm_factory=lambda: CachingLLMClient(self.llm_factory(), store=self.cache),
            prime_rows=stream_prime_rows,
            metrics_registry=self.registry,
        )
        self.started_at = time.time()
        self._draining = False
        self._events = self.registry.counter(
            "repro_gateway_events_total",
            help="Gateway request-level events (requests, rejections)",
            label_names=("event",),
        )

    # -- lifecycle ---------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Drain both services (with ``wait``) and flush the shared cache."""
        self._draining = True
        self.service.shutdown(wait=wait)
        self.streams.shutdown(wait=wait)
        self.cache.flush()

    def __enter__(self) -> "CleaningGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Each service's own exit cancels its unstarted work on an exception.
        self._draining = True
        self.service.__exit__(exc_type, exc, tb)
        self.streams.__exit__(exc_type, exc, tb)
        self.cache.flush()

    @property
    def draining(self) -> bool:
        return self._draining

    def count(self, key: str) -> None:
        self._events.inc(event=key)

    # -- payload parsing -----------------------------------------------------------
    @staticmethod
    def parse_table(payload: Dict[str, Any], default_name: str = "table") -> Table:
        """Build a :class:`Table` from a request payload.

        Accepts ``{"csv": "..."} `` (parsed with raw VARCHAR types, exactly
        like :meth:`CleaningService.submit_csv`) or
        ``{"columns": {name: [values...]}}``.  ``name`` overrides the table
        name in both forms.
        """
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        name = payload.get("name") or default_name
        if not isinstance(name, str):
            raise BadRequest("'name' must be a string")
        if "csv" in payload:
            if not isinstance(payload["csv"], str):
                raise BadRequest("'csv' must be a string of CSV text")
            table = read_csv_text(payload["csv"], name=name, infer_types=False)
        elif "columns" in payload:
            columns = payload["columns"]
            if not isinstance(columns, dict) or not all(
                isinstance(v, list) for v in columns.values()
            ):
                raise BadRequest("'columns' must map column names to value lists")
            try:
                table = Table.from_dict(name, columns)
            except ValueError as exc:
                raise BadRequest(str(exc))
        else:
            raise BadRequest("request body needs a 'csv' string or a 'columns' mapping")
        if table.num_columns == 0:
            raise BadRequest("the submitted table has no columns")
        return table

    # -- batch jobs -------------------------------------------------------------------
    def submit_job(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/jobs``: queue one table for cleaning; returns the job id.

        Raises :class:`~repro.service.ServiceSaturated` when bounded
        admission refuses the job (mapped to 429 upstream).
        """
        unknown = sorted(set(payload) - _JOB_FIELDS)
        if unknown:
            # Fields are checked, not ignored, so a removed option cannot be
            # sent and silently dropped.
            raise BadRequest(
                f"unknown job field(s) {', '.join(map(repr, unknown))}; "
                f"a job accepts {', '.join(sorted(_JOB_FIELDS))}"
            )
        table = self.parse_table(payload, default_name="job")
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            raise BadRequest("'priority' must be an integer")
        # Capture the caller's span (the HTTP layer's ``server.request``) so
        # the worker thread can parent its ``service.job`` trace under it.
        metadata: Dict[str, Any] = {}
        parent = current_ref()
        if parent is not None:
            metadata["trace_parent"] = parent
        job = self.service.submit(table, priority=priority, metadata=metadata)
        return {
            "job_id": job.job_id,
            "name": job.name,
            "status": str(job.status),
            "rows": table.num_rows,
            "columns": table.num_columns,
        }

    def job_status(self, job_id: int) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}``: lifecycle snapshot (service counts are at ``/metrics``)."""
        job = self.service.job(job_id)
        return {
            "job_id": job.job_id,
            "name": job.name,
            "status": str(job.status),
            "done": job.done,
            "summary": job.result.summary() if job.result is not None else None,
        }

    def job_result(self, job_id: int) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}/result``: the cleaned table + commented SQL.

        Raises :class:`ResultNotReady` while the job is pending/running; a
        failed job returns its error (the HTTP layer keeps the 200 — the
        *request* succeeded, the job did not).
        """
        job = self.service.job(job_id)
        if not job.done or job.result is None:
            raise ResultNotReady(f"job {job_id} is still {job.status}")
        result = job.result
        doc: Dict[str, Any] = {
            "job_id": job.job_id,
            "name": job.name,
            "status": str(result.status),
            "rows": result.rows,
            "columns": result.columns,
            "llm_calls": result.llm_calls,
            "cell_repairs": result.cell_repairs,
            "removed_rows": result.removed_rows,
            "run_seconds": result.run_seconds,
            "wait_seconds": result.wait_seconds,
        }
        if result.status is JobStatus.SUCCEEDED and result.cleaning_result is not None:
            doc["csv"] = to_csv_text(result.cleaning_result.cleaned_table)
            doc["sql_script"] = result.cleaning_result.sql_script
        else:
            doc["error"] = result.error
        return doc

    # -- streams ---------------------------------------------------------------------------
    def submit_stream_batch(self, stream_name: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/streams/{name}/batches``: feed one micro-batch.

        The stream is created on first use.  A full per-stream queue raises
        :class:`~repro.stream.StreamBackpressure` (mapped to 429 +
        ``Retry-After`` upstream) — the producer must back off, never the
        worker pool.
        """
        if not stream_name:
            raise BadRequest("stream name must not be empty")
        table = self.parse_table(payload, default_name=stream_name)
        stream = self.streams.get_or_create_stream(stream_name)
        job = self.streams.submit(stream_name, table, block=False)
        return {
            "stream": stream_name,
            "sequence": job.sequence,
            "rows": table.num_rows,
            "pending_batches": stream.pending_batches,
            "max_pending_batches": stream.max_pending_batches,
        }

    def stream_status(self, stream_name: str) -> Dict[str, Any]:
        """``GET /v1/streams/{name}``: unfinished batches and failure state.

        Batch counts are at ``/metrics``.
        """
        stream = self.streams.stream(stream_name)
        return {
            "stream": stream_name,
            "pending_batches": stream.pending_batches,
            "failed": stream.failed,
            "failure": stream.failure,
        }

    def stream_result(self, stream_name: str) -> Dict[str, Any]:
        """``GET /v1/streams/{name}/result``: the cumulative cleaned output.

        Returns the stream cleaner's cleaned table as CSV plus its stats —
        the streaming counterpart of ``/v1/jobs/{id}/result``, which is what
        lets the scenario replay harness assert byte-parity between the
        HTTP stream path and an in-process reference.  Raises
        :class:`ResultNotReady` while batches are still pending (the
        snapshot would race the workers), and ``KeyError`` (404) for
        unknown streams.
        """
        stream = self.streams.stream(stream_name)
        pending = stream.pending_batches
        if pending:
            raise ResultNotReady(
                f"stream {stream_name!r} still has {pending} pending batches"
            )
        cleaned = stream.cleaner.cleaned_table()
        return {
            "stream": stream_name,
            "rows": cleaned.num_rows,
            "columns": cleaned.column_names,
            "csv": to_csv_text(cleaned),
            "failed": stream.failed,
            "failure": stream.failure,
            "stats": stream.cleaner.stats.to_dict(),
        }

    def job_trace(self, job_id: int) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}/trace``: the job's span tree.

        Covers server → service → pipeline → operator → SQL-plan-node levels
        when tracing is on; ``spans`` is empty when the job predates tracing,
        tracing is disabled, or the trace was evicted.
        """
        job = self.service.job(job_id)
        trace_id = job.metadata.get("trace_id")
        spans = get_tracer().trace_tree(trace_id) if trace_id else []
        return {
            "job_id": job.job_id,
            "name": job.name,
            "status": str(job.status),
            "trace_id": trace_id,
            "spans": spans,
        }

    def job_lineage(
        self, job_id: int, row: Optional[int] = None, column: Optional[str] = None
    ) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}/lineage``: the job's cell-level audit trail.

        Without query parameters, returns every lineage record plus the
        recorder's census; with ``?row=`` (and optionally ``&column=``)
        returns just that cell's ordered explain chain.  Raises
        :class:`ResultNotReady` while the job is pending/running; a job
        whose pipeline predates lineage (or failed) reports zero records
        rather than 404 — the job exists, it just has nothing to explain.
        """
        job = self.service.job(job_id)
        if not job.done or job.result is None:
            raise ResultNotReady(f"job {job_id} is still {job.status}")
        result = job.result
        recorder = (
            getattr(result.cleaning_result, "lineage", None)
            if result.cleaning_result is not None
            else None
        )
        doc: Dict[str, Any] = {
            "job_id": job.job_id,
            "name": job.name,
            "status": str(result.status),
        }
        if recorder is None:
            doc.update({"records": [], "changed_cells": 0, "removed_rows": [], "census": {}})
            return doc
        if row is not None:
            doc["row_id"] = row
            doc["column"] = column
            doc["records"] = [json_safe_record(r) for r in recorder.explain(row, column)]
            return doc
        doc.update(recorder.to_doc())
        return doc

    # -- observability ------------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        pending = self.service.pending_jobs
        limit = self.service.max_pending_jobs
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue": {
                "pending_jobs": pending,
                "max_pending_jobs": limit,
                # Unbounded admission never saturates; report 0.0, not None.
                "saturation": round(pending / limit, 4) if limit else 0.0,
            },
        }

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``: JSON counters across both services + the cache.

        The job, batch and gateway counts are the registry counters the
        Prometheus scrape renders.
        """
        submitted = self.registry.get("repro_service_jobs_submitted_total")
        finished = self.registry.get("repro_service_jobs_total")
        batches_submitted = self.registry.get("repro_stream_batches_submitted_total")
        batches = self.registry.get("repro_stream_batches_total")
        streams = self.streams.list_streams()
        return {
            "generated_at": time.time(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "gateway": {key: int(self._events.value(event=key)) for key in _EVENT_KEYS},
            "jobs": {
                "submitted": int(submitted.total()),
                "succeeded": int(finished.value(status=JobStatus.SUCCEEDED.value)),
                "failed": int(finished.value(status=JobStatus.FAILED.value)),
                "cancelled": int(finished.value(status=JobStatus.CANCELLED.value)),
                "pending": self.service.pending_jobs,
                "queue_depth": self.service.queue_depth,
            },
            "cache": self.cache.stats(),
            "streams": {
                "count": len(streams),
                "submitted": int(batches_submitted.total()),
                "succeeded": int(batches.value(status="succeeded")),
                "failed": int(batches.value(status="failed")),
                "cancelled": int(batches.value(status="cancelled")),
                "queue_depth": self.streams.queue_depth,
                "pending_per_stream": {stream.name: stream.pending_batches for stream in streams},
            },
        }

    def metrics_text(self) -> str:
        """``GET /metrics?format=prometheus``: Prometheus text format (0.0.4).

        Renders the gateway's registry (gateway events + both services)
        followed by the process-default registry (LLM and cache metrics) —
        the family names are disjoint, so the concatenation is one valid
        exposition.  Point-in-time state (uptime, queue depths, cache size)
        is refreshed into gauges at scrape time; cache hits and misses are
        the default registry's ``repro_cache_requests_total``.
        """
        self.registry.gauge(
            "repro_gateway_uptime_seconds", help="Seconds since the gateway started"
        ).set(time.time() - self.started_at)
        self.registry.gauge(
            "repro_service_pending_jobs", help="Unfinished cleaning jobs held by the service"
        ).set(self.service.pending_jobs)
        self.registry.gauge(
            "repro_service_queue_depth", help="Cleaning jobs waiting in the run queue"
        ).set(self.service.queue_depth)
        self.registry.gauge(
            "repro_stream_queue_depth", help="Stream micro-batches waiting to start"
        ).set(self.streams.queue_depth)
        self.registry.gauge(
            "repro_cache_size", help="Entries in the shared prompt cache"
        ).set(len(self.cache))
        default = get_default_registry()
        if default is self.registry:
            return self.registry.render_prometheus()
        return self.registry.render_prometheus() + default.render_prometheus()
