"""Service-level metrics: throughput, latency, and cache effectiveness.

The collector is shared by all worker threads.  Since ``repro.obs`` exists it
is a thin façade over a :class:`~repro.obs.metrics.MetricsRegistry`: every
finished job is folded into registry counters/histograms
(``repro_service_*``), and :meth:`StatsCollector.snapshot` reads those
metrics back into an immutable :class:`ServiceStats` suitable for reporting
(see :func:`repro.core.report.render_service_summary`).  The registry is the
same object a fronting gateway renders at ``GET /metrics`` — one sink, two
exposition shapes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.obs.metrics import MetricsRegistry, percentile
from repro.service.jobs import JobResult, JobStatus


@dataclass
class ServiceStats:
    """Aggregate metrics of one service run (a snapshot, safe to keep)."""

    jobs_submitted: int = 0
    jobs_succeeded: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    rows_cleaned: int = 0
    cells_repaired: int = 0
    rows_removed: int = 0
    llm_calls: int = 0
    # Busy wall time: submission-to-last-finish per batch, idle gaps excluded.
    wall_seconds: float = 0.0
    # Per-job latency distribution (seconds spent executing).
    run_seconds_total: float = 0.0
    run_seconds_avg: float = 0.0
    run_seconds_p50: float = 0.0
    run_seconds_max: float = 0.0
    wait_seconds_avg: float = 0.0
    # Cache effectiveness of the shared store (zeros when caching is off).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    cache_size: int = 0

    @property
    def jobs_per_second(self) -> float:
        return self.jobs_succeeded / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def rows_per_second(self) -> float:
        return self.rows_cleaned / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def speedup_over_sequential(self) -> float:
        """How much faster the wall clock was than summed per-job runtimes."""
        return self.run_seconds_total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, Union[int, float]]:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_succeeded": self.jobs_succeeded,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "rows_cleaned": self.rows_cleaned,
            "cells_repaired": self.cells_repaired,
            "rows_removed": self.rows_removed,
            "llm_calls": self.llm_calls,
            "wall_seconds": self.wall_seconds,
            "jobs_per_second": self.jobs_per_second,
            "rows_per_second": self.rows_per_second,
            "run_seconds_total": self.run_seconds_total,
            "run_seconds_avg": self.run_seconds_avg,
            "run_seconds_p50": self.run_seconds_p50,
            "run_seconds_max": self.run_seconds_max,
            "wait_seconds_avg": self.wait_seconds_avg,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_size": self.cache_size,
        }


class StatsCollector:
    """Thread-safe accumulator the scheduler folds every job result into.

    State lives in a :class:`MetricsRegistry` (``repro_service_*`` metrics) —
    pass one in to share it with a gateway's ``/metrics`` endpoint, or let
    the collector own a private registry.  The latency histograms retain
    every raw observation (``max_samples=None``) so :meth:`snapshot` reports
    the exact totals/avg/max the pre-registry list aggregation produced.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._submitted = self.registry.counter(
            "repro_service_jobs_submitted_total", help="Cleaning jobs accepted by the service"
        )
        self._finished = self.registry.counter(
            "repro_service_jobs_total",
            help="Finished cleaning jobs by terminal status",
            label_names=("status",),
        )
        self._rows = self.registry.counter(
            "repro_service_rows_cleaned_total", help="Rows in successfully cleaned tables"
        )
        self._cells = self.registry.counter(
            "repro_service_cells_repaired_total", help="Cell repairs applied by succeeded jobs"
        )
        self._removed = self.registry.counter(
            "repro_service_rows_removed_total", help="Rows removed (deduplicated) by succeeded jobs"
        )
        self._llm = self.registry.counter(
            "repro_service_llm_calls_total", help="LLM calls attributed to succeeded jobs"
        )
        self._run_seconds = self.registry.histogram(
            "repro_service_job_run_seconds",
            help="Per-job execution time of succeeded jobs",
            max_samples=None,
        )
        self._wait_seconds = self.registry.histogram(
            "repro_service_job_wait_seconds",
            help="Per-job queue wait time of succeeded jobs",
            max_samples=None,
        )
        # Busy wall time is accumulated per batch span: ``restart_clock`` (called
        # when a submission arrives with nothing in flight) closes the previous
        # span, so idle gaps between batches don't dilute throughput.
        self._busy_before = 0.0
        self._span_start = time.perf_counter()
        self._last_finish_at = self._span_start

    def record_submitted(self, count: int = 1) -> None:
        self._submitted.inc(count)

    def record_result(self, result: JobResult) -> None:
        self._finished.inc(status=result.status.value)
        if result.status is JobStatus.SUCCEEDED:
            self._rows.inc(result.rows)
            self._cells.inc(result.cell_repairs)
            self._removed.inc(result.removed_rows)
            self._llm.inc(result.llm_calls)
            self._run_seconds.observe(result.run_seconds)
            self._wait_seconds.observe(result.wait_seconds)
        with self._lock:
            self._last_finish_at = time.perf_counter()

    def restart_clock(self) -> None:
        """Start a new batch span, banking the busy time of the previous one."""
        with self._lock:
            self._busy_before += max(0.0, self._last_finish_at - self._span_start)
            self._span_start = time.perf_counter()
            self._last_finish_at = self._span_start

    def snapshot(self, cache_stats: Optional[Dict[str, Union[int, float]]] = None) -> ServiceStats:
        with self._lock:
            wall = self._busy_before + max(0.0, self._last_finish_at - self._span_start)
        stats = ServiceStats(
            jobs_submitted=int(self._submitted.total()),
            jobs_succeeded=int(self._finished.value(status=JobStatus.SUCCEEDED.value)),
            jobs_failed=int(self._finished.value(status=JobStatus.FAILED.value)),
            jobs_cancelled=int(self._finished.value(status=JobStatus.CANCELLED.value)),
            rows_cleaned=int(self._rows.total()),
            cells_repaired=int(self._cells.total()),
            rows_removed=int(self._removed.total()),
            llm_calls=int(self._llm.total()),
            wall_seconds=wall,
        )
        run_times = self._run_seconds.samples()
        if run_times:
            ordered = sorted(run_times)
            stats.run_seconds_total = sum(run_times)
            stats.run_seconds_avg = stats.run_seconds_total / len(run_times)
            stats.run_seconds_p50 = percentile(ordered, 0.5)
            stats.run_seconds_max = ordered[-1]
        wait_times = self._wait_seconds.samples()
        if wait_times:
            stats.wait_seconds_avg = sum(wait_times) / len(wait_times)
        if cache_stats:
            stats.cache_hits = int(cache_stats.get("hits", 0))
            stats.cache_misses = int(cache_stats.get("misses", 0))
            stats.cache_hit_rate = float(cache_stats.get("hit_rate", 0.0))
            stats.cache_size = int(cache_stats.get("size", 0))
        return stats
