"""Job objects for the concurrent cleaning service.

A :class:`CleaningJob` is one unit of scheduled work: clean one table.  Jobs
carry their own lifecycle (:class:`JobStatus`), timing marks, and a
:class:`JobResult` once finished, and expose a :class:`threading.Event`-backed
:meth:`CleaningJob.wait` so callers can block on individual jobs without
polling the service.  :func:`render_service_summary` summarises a batch of
them.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.core.result import CleaningResult
from repro.dataframe.table import Table
from repro.obs.metrics import percentile


class JobStatus(enum.Enum):
    """Lifecycle of a cleaning job inside the service."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


@dataclass
class JobResult:
    """Everything one finished job produced, including its timing breakdown."""

    job_id: int
    table_name: str
    status: JobStatus
    cleaning_result: Optional[CleaningResult] = None
    error: Optional[str] = None
    rows: int = 0
    columns: int = 0
    llm_calls: int = 0
    cell_repairs: int = 0
    removed_rows: int = 0
    # Seconds spent waiting in the queue and executing, respectively.
    wait_seconds: float = 0.0
    run_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.SUCCEEDED

    def summary(self) -> str:
        if self.status is JobStatus.SUCCEEDED:
            detail = (
                f"{self.rows} rows, {self.cell_repairs} repairs, "
                f"{self.llm_calls} LLM calls, {self.run_seconds:.2f}s"
            )
        else:
            detail = self.error or self.status.value
        return f"[{self.status.value}] {self.table_name}: {detail}"


_job_ids = itertools.count(1)


@dataclass(eq=False)
class CleaningJob:
    """One scheduled cleaning task.

    Jobs are ordered by ``priority`` (lower runs first) and FIFO within a
    priority.
    """

    table: Table
    priority: int = 0
    name: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    job_id: int = field(default_factory=lambda: next(_job_ids))
    status: JobStatus = JobStatus.PENDING
    result: Optional[JobResult] = None

    # Timing marks (``time.perf_counter`` values captured by the service).
    submitted_at: float = field(default_factory=time.perf_counter)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    #: Called once with the result when the job settles or is cancelled,
    #: before waiters wake; the service counts every job through it.
    on_settle: Optional[Callable[[JobResult], None]] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.table.name or f"job-{self.job_id}"
        self._done = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------
    def cancel(self) -> bool:
        """Cancel the job if it has not started; returns True on success.

        Running jobs are not interrupted — cancellation is a queue-level
        operation, mirroring how the paper's human-in-the-loop can abandon a
        step before it executes.
        """
        with self._lock:
            if self.status is not JobStatus.PENDING:
                return False
            self.status = JobStatus.CANCELLED
        self.finished_at = time.perf_counter()
        self.result = JobResult(
            job_id=self.job_id,
            table_name=self.name,
            status=JobStatus.CANCELLED,
            error="cancelled before execution",
            rows=self.table.num_rows,
            columns=self.table.num_columns,
            wait_seconds=self.finished_at - self.submitted_at,
        )
        self._settle()
        return True

    def mark_running(self) -> bool:
        """Transition PENDING → RUNNING; False when the job was cancelled."""
        with self._lock:
            if self.status is not JobStatus.PENDING:
                return False
            self.status = JobStatus.RUNNING
        self.started_at = time.perf_counter()
        return True

    def finish(self, result: JobResult) -> None:
        with self._lock:
            self.status = result.status
        self.finished_at = time.perf_counter()
        self.result = result
        self._settle()

    def _settle(self) -> None:
        if self.on_settle is not None:
            self.on_settle(self.result)
        self._done.set()

    # -- waiting ---------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> Optional[JobResult]:
        """Block until the job reaches a terminal state; returns its result."""
        self._done.wait(timeout)
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"CleaningJob(id={self.job_id}, name={self.name!r}, status={self.status.value})"


def render_service_summary(jobs: Sequence[CleaningJob], cache_stats: Mapping[str, float]) -> str:
    """Human-readable summary of a batch-cleaning service run.

    Aggregates the caller's jobs — counts by terminal status, the volume
    and per-job latency of the succeeded ones — plus the shared prompt
    cache's ``stats()``, as an aligned text block (the CLI prints this after
    every batch).  Wall time runs from the first submission to the last
    finish, and unsettled jobs count only as submitted.
    """
    succeeded = [job.result for job in jobs if job.result is not None and job.result.ok]
    statuses = [job.result.status for job in jobs if job.result is not None]
    failed = statuses.count(JobStatus.FAILED)
    cancelled = statuses.count(JobStatus.CANCELLED)
    finished = [job.finished_at for job in jobs if job.finished_at is not None]
    wall = max(0.0, max(finished) - min(job.submitted_at for job in jobs)) if finished else 0.0
    rows = sum(result.rows for result in succeeded)
    run_times = sorted(result.run_seconds for result in succeeded)
    run_total = sum(run_times)
    run_avg = run_total / len(run_times) if run_times else 0.0
    run_max = run_times[-1] if run_times else 0.0
    wait_avg = sum(r.wait_seconds for r in succeeded) / len(succeeded) if succeeded else 0.0
    hits, misses = int(cache_stats.get("hits", 0)), int(cache_stats.get("misses", 0))
    lines = [
        "Cleaning service summary",
        "------------------------",
        f"jobs        : {len(jobs)} submitted, {len(succeeded)} succeeded, "
        f"{failed} failed, {cancelled} cancelled",
        f"volume      : {rows} rows cleaned, "
        f"{sum(r.cell_repairs for r in succeeded)} cells repaired, "
        f"{sum(r.removed_rows for r in succeeded)} rows removed",
        f"llm         : {sum(r.llm_calls for r in succeeded)} calls"
        + (
            f"; cache {hits} hits / {misses} misses "
            f"({float(cache_stats.get('hit_rate', 0.0)):.0%} hit rate, "
            f"{int(cache_stats.get('size', 0))} entries)"
            if hits or misses
            else ""
        ),
        f"throughput  : {len(succeeded) / wall if wall > 0 else 0.0:.2f} jobs/s, "
        f"{rows / wall if wall > 0 else 0.0:.0f} rows/s over {wall:.2f}s wall time",
        f"latency     : avg {run_avg:.2f}s, p50 {percentile(run_times, 0.5):.2f}s, "
        f"max {run_max:.2f}s per job (avg queue wait {wait_avg:.2f}s)",
    ]
    if wall > 0 and len(succeeded) > 1:
        lines.append(
            f"concurrency : {run_total / wall:.2f}x speedup over summed job runtimes"
        )
    return "\n".join(lines)
