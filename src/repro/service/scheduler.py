"""The concurrent cleaning service: a priority heap over a thread pool.

``CleaningService`` turns the single-shot :class:`~repro.core.pipeline.CocoonCleaner`
into a long-lived service: jobs are submitted (optionally with priorities and
per-job configs), a :class:`~concurrent.futures.ThreadPoolExecutor` runs them,
and every job gets a fully isolated :class:`~repro.sql.database.Database`,
:class:`~repro.core.context.CleaningContext` and LLM instance — only the
prompt-response cache (:class:`~repro.llm.cache.PromptCacheStore`) is shared,
so concurrent jobs amortise each other's LLM calls without sharing any
mutable cleaning state.

Isolation is what makes concurrent results reproducible: no job ever reads
another job's tables, contexts or operator state.  The one deliberate
coupling is the shared prompt cache — a job whose prompt was already
answered reuses that response.  For a pure prompt→response model this is
invisible; for a *stateful* inner model (the simulated LLM remembers value
counts from detection prompts) a cross-job cache hit skips the inner call
that would have recorded that state, which can matter in the corner case
where two jobs share a detection prompt but diverge afterwards.  Pass
``share_cache=False`` for strict per-job isolation.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.context import CleaningConfig
from repro.core.hil import AutoApprove, HumanInTheLoop
from repro.core.pipeline import CocoonCleaner
from repro.core.result import CleaningResult
from repro.dataframe.io import read_csv
from repro.dataframe.table import Table
from repro.llm.base import LLMClient
from repro.llm.cache import PromptCacheStore, cached_client
from repro.llm.simulated import SimulatedSemanticLLM
from repro.obs import span as obs_span
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import CleaningJob, JobResult, JobStatus
from repro.service.stats import ServiceStats, StatsCollector
from repro.sql.database import Database

LLMFactory = Callable[[], LLMClient]
HILFactory = Callable[[], HumanInTheLoop]


class ServiceSaturated(RuntimeError):
    """Admission refused: the service already holds ``max_pending_jobs`` unfinished jobs.

    Raised by :meth:`CleaningService.submit` when bounded admission is on —
    the signal a fronting gateway translates into HTTP 429 so producers shed
    load instead of queueing unboundedly.
    """


class CleaningService:
    """Schedules and executes many cleaning jobs on a thread pool.

    Typical batch use::

        with CleaningService(workers=4) as service:
            jobs = [service.submit(t) for t in tables]
            results = service.wait_all()

    Jobs wait in a heap of ``(priority, sequence, job)``: lower priority
    numbers run first, FIFO within a priority.  Each submission hands the
    executor one task, and a task runs whichever queued job is best when a
    worker frees up, so the executor's own FIFO never decides the order.
    Cancelled jobs stay in the heap and are skipped when popped.
    """

    def __init__(
        self,
        workers: int = 4,
        llm_factory: Optional[LLMFactory] = None,
        config: Optional[CleaningConfig] = None,
        hil_factory: Optional[HILFactory] = None,
        cache_path: Optional[Union[str, Path]] = None,
        cache_flush_every: int = 32,
        cache_store: Optional[PromptCacheStore] = None,
        share_cache: bool = True,
        max_pending_jobs: Optional[int] = None,
        max_retained_jobs: int = 1024,
        metrics_registry: Optional[MetricsRegistry] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending_jobs is not None and max_pending_jobs < 1:
            raise ValueError(f"max_pending_jobs must be >= 1, got {max_pending_jobs}")
        if max_retained_jobs < 1:
            raise ValueError(f"max_retained_jobs must be >= 1, got {max_retained_jobs}")
        self.workers = workers
        self.max_pending_jobs = max_pending_jobs
        self.max_retained_jobs = max_retained_jobs
        self.llm_factory = llm_factory or SimulatedSemanticLLM
        self.config = config or CleaningConfig()
        self.hil_factory = hil_factory or AutoApprove
        if cache_store is not None:
            self.cache: Optional[PromptCacheStore] = cache_store
        elif share_cache:
            self.cache = PromptCacheStore(cache_path, flush_every=cache_flush_every)
        else:
            self.cache = None

        self._executor = ThreadPoolExecutor(workers, thread_name_prefix="repro-worker")
        self._queued: List[tuple] = []  # heap of (priority, sequence, job)
        self._sequence = itertools.count()
        self._closed = False
        self._jobs: List[CleaningJob] = []
        # Lookup registry keyed by job id: unsettled jobs are always present;
        # settled ones are retained (oldest-first eviction beyond
        # ``max_retained_jobs``) so network callers can fetch results later.
        self._jobs_by_id: "OrderedDict[int, CleaningJob]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = StatsCollector(registry=metrics_registry)

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; with ``wait`` drain the queue and join workers.

        Jobs already queued run either way; ``wait`` only decides whether
        this call blocks until they have.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)
        if self.cache is not None:
            self.cache.flush()

    def __enter__(self) -> "CleaningService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)
        if exc_type is not None:
            # An exception (Ctrl-C included) is unwinding the block: cancel
            # the jobs not yet started, so only the running ones hold up the
            # process's exit (executor threads are joined at exit).
            with self._lock:
                queued, self._queued = self._queued, []
            for _, _, job in queued:
                self.cancel(job)

    # -- submission -------------------------------------------------------------
    def submit(
        self,
        table: Table,
        priority: int = 0,
        config: Optional[CleaningConfig] = None,
        name: str = "",
        metadata: Optional[Dict[str, Any]] = None,
    ) -> CleaningJob:
        """Queue one table for cleaning and return its job handle.

        ``metadata`` is attached to the job verbatim; the gateway uses it to
        carry the request's trace parent (``trace_parent``) so the worker's
        ``service.job`` span joins the submitting HTTP request's trace.
        """
        job = CleaningJob(
            table=table,
            priority=priority,
            config=config,
            name=name or table.name or "",
            metadata=dict(metadata) if metadata else {},
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("service has been shut down")
            if self.max_pending_jobs is not None:
                pending = sum(1 for tracked in self._jobs_by_id.values() if not tracked.done)
                if pending >= self.max_pending_jobs:
                    raise ServiceSaturated(
                        f"service already has {pending} unfinished jobs "
                        f"(max_pending_jobs={self.max_pending_jobs})"
                    )
            # A new batch (first submission, or everything before it already
            # settled) restarts the throughput wall clock — so idle gaps
            # between batches don't dilute jobs/s — and evicts the settled
            # jobs, releasing their tables/results; without eviction a
            # long-lived service would hold every table ever cleaned.
            if all(previous.done for previous in self._jobs):
                self._stats.restart_clock()
                self._jobs.clear()
            self._jobs.append(job)
            self._jobs_by_id[job.job_id] = job
            # Unsettled jobs are never evicted, so the registry can only
            # exceed the cap by the (admission-bounded) in-flight count.
            while len(self._jobs_by_id) > self.max_retained_jobs:
                oldest_settled = next(
                    (jid for jid, tracked in self._jobs_by_id.items() if tracked.done), None
                )
                if oldest_settled is None:
                    break
                del self._jobs_by_id[oldest_settled]
            # Enqueue under the lock: shutdown() also takes it before closing
            # the executor, so a job can never be tracked but unqueued.
            heapq.heappush(self._queued, (priority, next(self._sequence), job))
            self._executor.submit(self._run_next)
        self._stats.record_submitted()
        return job

    def submit_csv(self, path: Union[str, Path], **kwargs) -> CleaningJob:
        """Read a CSV (types left raw, as the cleaner expects) and queue it."""
        return self.submit(read_csv(path, infer_types=False), **kwargs)

    def cancel(self, job: CleaningJob) -> bool:
        """Cancel a queued job; running jobs are not interrupted."""
        cancelled = job.cancel()
        if cancelled and job.result is not None:
            self._stats.record_result(job.result)
        return cancelled

    # -- waiting and results -----------------------------------------------------
    @property
    def jobs(self) -> List[CleaningJob]:
        """Jobs of the current batch (submissions since the service last went
        idle); earlier batches are evicted to keep long-lived services bounded."""
        with self._lock:
            return list(self._jobs)

    def job(self, job_id: int) -> CleaningJob:
        """Look up a job by id (raises ``KeyError`` for unknown/evicted ids).

        Unlike :attr:`jobs`, the id registry spans batches: a settled job
        stays fetchable until ``max_retained_jobs`` pushes it out — the
        contract the HTTP gateway's ``GET /v1/jobs/{id}`` relies on.
        """
        with self._lock:
            if job_id not in self._jobs_by_id:
                raise KeyError(
                    f"unknown job id {job_id} (finished jobs are retained up to "
                    f"{self.max_retained_jobs}; older ones are evicted)"
                )
            return self._jobs_by_id[job_id]

    @property
    def pending_jobs(self) -> int:
        """Number of tracked jobs that have not reached a terminal state."""
        with self._lock:
            return sum(1 for job in self._jobs_by_id.values() if not job.done)

    @property
    def queue_depth(self) -> int:
        """Jobs waiting to run, not yet claimed by a worker."""
        with self._lock:
            return sum(1 for _, _, job in self._queued if job.status is JobStatus.PENDING)

    def wait_all(self, timeout: Optional[float] = None) -> List[JobResult]:
        """Block until every current-batch job is terminal; results in submit order."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        results: List[JobResult] = []
        for job in self.jobs:
            remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
            result = job.wait(remaining)
            if result is None:
                raise TimeoutError(f"job {job.name!r} did not finish within the timeout")
            results.append(result)
        return results

    def clean_tables(self, tables: Sequence[Table]) -> List[JobResult]:
        """Convenience batch call: submit every table, wait, return results."""
        jobs = [self.submit(table) for table in tables]
        return [job.wait() for job in jobs]

    def stats(self) -> ServiceStats:
        """A point-in-time snapshot of service metrics (including the cache)."""
        cache_stats = self.cache.stats() if self.cache is not None else None
        return self._stats.snapshot(cache_stats)

    # -- execution ---------------------------------------------------------------
    def _run_next(self) -> None:
        """Run the best queued job; one call per submission, so none is missed."""
        with self._lock:
            while self._queued:
                _, _, job = heapq.heappop(self._queued)
                if job.mark_running():
                    break
            else:
                return  # every remaining entry was cancelled
        self._run_job(job)

    def _run_job(self, job: CleaningJob) -> None:
        started = time.perf_counter()
        wait_seconds = started - job.submitted_at
        # Worker threads carry no span stack, so this is either a child of the
        # submitting request (trace_parent propagated through job metadata), a
        # fresh "job-<id>" root when tracing is on, or a no-op.
        with obs_span(
            "service.job",
            parent_ref=job.metadata.get("trace_parent"),
            trace_id=f"job-{job.job_id}",
            job_id=job.job_id,
            table=job.name,
        ) as sp:
            if sp.trace_id is not None:
                job.metadata["trace_id"] = sp.trace_id
            self._run_job_traced(job, sp, started, wait_seconds)

    def _run_job_traced(self, job: CleaningJob, sp, started: float, wait_seconds: float) -> None:
        try:
            cleaning = self._execute(job)
            result = JobResult(
                job_id=job.job_id,
                table_name=job.name,
                status=JobStatus.SUCCEEDED,
                cleaning_result=cleaning,
                rows=job.table.num_rows,
                columns=job.table.num_columns,
                llm_calls=cleaning.llm_calls,
                cell_repairs=len(cleaning.repairs),
                removed_rows=len(cleaning.removed_row_ids),
                wait_seconds=wait_seconds,
                run_seconds=time.perf_counter() - started,
            )
        except Exception as exc:
            result = JobResult(
                job_id=job.job_id,
                table_name=job.name,
                status=JobStatus.FAILED,
                error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                rows=job.table.num_rows,
                columns=job.table.num_columns,
                wait_seconds=wait_seconds,
                run_seconds=time.perf_counter() - started,
            )
        sp.annotate(status=result.status.value, rows=result.rows, llm_calls=result.llm_calls)
        if result.error:
            sp.annotate(error=result.error.splitlines()[0])
        job.finish(result)
        self._stats.record_result(result)

    def _execute(self, job: CleaningJob) -> CleaningResult:
        llm = cached_client(self.llm_factory(), self.cache)
        cleaner = CocoonCleaner(
            llm=llm, config=job.config or self.config, hil=self.hil_factory(), database=Database()
        )
        return cleaner.clean(job.table)
