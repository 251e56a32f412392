"""Concurrent batch-cleaning service on top of the Cocoon pipeline.

:class:`~repro.core.pipeline.CocoonCleaner` cleans one table per
synchronous call.  This package runs many such calls concurrently:

* :mod:`repro.service.jobs` — job objects with lifecycle, timing and
  per-job LLM accounting, and :func:`render_service_summary`, which
  summarises a caller's settled jobs (throughput, latency, cache hit rate);
* :mod:`repro.service.scheduler` — :class:`CleaningService`: a priority heap
  (FIFO within a priority, cancelled jobs skipped) drained by a
  ``concurrent.futures`` thread pool, giving every job an isolated
  database/context/LLM while sharing one thread-safe prompt cache;
  every settled or cancelled job is counted once into the
  ``repro_service_*`` metrics of a :class:`~repro.obs.metrics.MetricsRegistry`;
* :mod:`repro.service.cli` — ``python -m repro.service`` for cleaning a
  directory of CSV files concurrently.
"""

from repro.service.jobs import CleaningJob, JobResult, JobStatus, render_service_summary
from repro.service.scheduler import CleaningService, ServiceSaturated

__all__ = [
    "CleaningService",
    "ServiceSaturated",
    "CleaningJob",
    "JobResult",
    "JobStatus",
    "render_service_summary",
]
