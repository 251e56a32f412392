"""Job objects for the concurrent cleaning service.

A :class:`CleaningJob` is one unit of scheduled work: clean one table.  Jobs
carry their own lifecycle (:class:`JobStatus`), timing marks, and a
:class:`JobResult` once finished, and expose a :class:`threading.Event`-backed
:meth:`CleaningJob.wait` so callers can block on individual jobs without
polling the service.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.result import CleaningResult
from repro.dataframe.table import Table


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
        self._done.set()
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
