"""Concurrent batch-cleaning service on top of the Cocoon pipeline.

The seed system cleans one table per synchronous call.  This package is the
scaling layer the ROADMAP's production north-star asks for:

* :mod:`repro.service.jobs` — job objects with lifecycle, timing and
  per-job LLM accounting;
* :mod:`repro.service.queue` — a priority FIFO queue with O(1) cancellation;
* :mod:`repro.service.pool` — :class:`WorkerPool`, the generic thread pool
  the cleaning service and the experiment matrix both dispatch onto;
* :mod:`repro.service.scheduler` — :class:`CleaningService`, a thread worker
  pool giving every job an isolated database/context/LLM while sharing one
  thread-safe prompt cache;
* :mod:`repro.service.stats` — throughput / latency / cache metrics,
  rendered by :func:`repro.core.report.render_service_summary`;
* :mod:`repro.service.cli` — ``python -m repro.service`` for cleaning a
  directory of CSV files concurrently.
"""

from repro.service.jobs import CleaningJob, JobResult, JobStatus
from repro.service.pool import WorkerPool
from repro.service.queue import JobQueue, QueueClosed
from repro.service.scheduler import CleaningService, ServiceSaturated
from repro.service.stats import ServiceStats, StatsCollector

__all__ = [
    "CleaningService",
    "ServiceSaturated",
    "CleaningJob",
    "JobResult",
    "JobStatus",
    "JobQueue",
    "QueueClosed",
    "WorkerPool",
    "ServiceStats",
    "StatsCollector",
]
