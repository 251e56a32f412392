"""Concurrent batch-cleaning service on top of the Cocoon pipeline.

:class:`~repro.core.pipeline.CocoonCleaner` cleans one table per
synchronous call.  This package runs many such calls concurrently:

* :mod:`repro.service.jobs` — job objects with lifecycle, timing and
  per-job LLM accounting;
* :mod:`repro.service.scheduler` — :class:`CleaningService`: a priority heap
  (FIFO within a priority, cancelled jobs skipped) drained by a
  ``concurrent.futures`` thread pool, giving every job an isolated
  database/context/LLM while sharing one thread-safe prompt cache;
* :mod:`repro.service.stats` — throughput / latency / cache metrics,
  rendered by :func:`repro.core.report.render_service_summary`;
* :mod:`repro.service.cli` — ``python -m repro.service`` for cleaning a
  directory of CSV files concurrently.
"""

from repro.service.jobs import CleaningJob, JobResult, JobStatus
from repro.service.scheduler import CleaningService, ServiceSaturated
from repro.service.stats import ServiceStats, StatsCollector

__all__ = [
    "CleaningService",
    "ServiceSaturated",
    "CleaningJob",
    "JobResult",
    "JobStatus",
    "ServiceStats",
    "StatsCollector",
]
