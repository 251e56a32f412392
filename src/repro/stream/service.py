"""Many concurrent streams on one shared worker pool, with backpressure.

One :class:`~repro.stream.engine.StreamingCleaner` is inherently sequential
— batch *n+1* replays against state batch *n* built.  A service ingesting
many independent streams (one per table / tenant / landing directory) still
wants them cleaned concurrently.  :class:`StreamService` does exactly that:

* every stream gets its own :class:`StreamingCleaner`;
* micro-batches become :class:`StreamBatchJob` objects dispatched on the
  shared :class:`~repro.service.pool.WorkerPool` (the same pool machinery
  the batch cleaning service and the experiment matrix use);
* per-stream order is enforced by sequence numbers — a worker that pops
  batch *n+1* before *n* finished blocks on the stream's condition variable
  (safe: the FIFO queue pops in submission order, so the running set is
  always a contiguous prefix and batch *n* is already on a worker);
* **bounded-queue backpressure**: each stream holds at most
  ``max_pending_batches`` unfinished batches.  ``submit`` blocks the
  producer (or raises :class:`StreamBackpressure` with ``block=False`` /
  on timeout), so a fast producer cannot grow the queue without bound —
  the ingestion contract a production service needs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.context import CleaningConfig
from repro.dataframe.table import Table
from repro.llm.base import LLMClient
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobStatus
from repro.service.pool import WorkerPool
from repro.stream.engine import StreamBatchResult, StreamingCleaner


class StreamBackpressure(RuntimeError):
    """The stream's bounded batch queue is full and the caller chose not to wait."""


class StreamBatchJob:
    """One micro-batch queued for a stream (implements the PoolJob protocol)."""

    def __init__(self, stream: "ManagedStream", batch: Table, sequence: int, priority: int):
        self.stream = stream
        self.batch = batch
        self.sequence = sequence
        self.priority = priority
        self.status = JobStatus.PENDING
        self.result: Optional[StreamBatchResult] = None
        self.error: Optional[str] = None
        self._lock = threading.Lock()
        self._done = threading.Event()

    def mark_running(self) -> bool:
        with self._lock:
            if self.status is not JobStatus.PENDING:
                return False
            self.status = JobStatus.RUNNING
        return True

    def finish(self, result: Optional[StreamBatchResult], error: Optional[str]) -> None:
        with self._lock:
            self.status = JobStatus.FAILED if error else JobStatus.SUCCEEDED
        self.result = result
        self.error = error
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> Optional[StreamBatchResult]:
        self._done.wait(timeout)
        return self.result

    @property
    def done(self) -> bool:
        return self._done.is_set()


class ManagedStream:
    """A named stream plus its ordering/backpressure state.

    ``priority`` is fixed per stream, not per batch: within one stream every
    job must pop in submission order (a higher-priority later batch could
    otherwise be handed to the only worker, which would then wait forever
    for the earlier batch still in the queue).
    """

    #: Completed jobs kept for inspection; older ones are trimmed so a
    #: long-running stream does not grow memory without bound.
    max_retained_jobs = 1024

    def __init__(
        self,
        name: str,
        cleaner: StreamingCleaner,
        max_pending_batches: int,
        priority: int = 0,
    ):
        self.name = name
        self.cleaner = cleaner
        self.max_pending_batches = max_pending_batches
        self.priority = priority
        self.jobs: List[StreamBatchJob] = []
        self.failed = False
        self.failure: Optional[str] = None
        self._submitted = 0
        self._completed = 0
        self._failed_count = 0
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        self._capacity = threading.Semaphore(max_pending_batches)
        # Held across sequence assignment *and* pool enqueue: the worker-side
        # ordering wait is deadlock-free only if jobs reach the pool queue in
        # sequence order (the running set must stay a contiguous prefix).
        self._submit_lock = threading.Lock()

    # -- producer side -----------------------------------------------------------
    def reserve(self, block: bool, timeout: Optional[float]) -> None:
        if block:
            acquired = self._capacity.acquire(timeout=timeout)
        else:
            # acquire() rejects blocking=False with a timeout, so split paths.
            acquired = self._capacity.acquire(blocking=False)
        if not acquired:
            raise StreamBackpressure(
                f"stream {self.name!r} already has {self.max_pending_batches} pending batches"
            )

    def next_sequence(self) -> int:
        with self._lock:
            sequence = self._submitted
            self._submitted += 1
            return sequence

    # -- worker side --------------------------------------------------------------
    def run_in_order(self, job: StreamBatchJob) -> None:
        with self._turn:
            while self._completed < job.sequence:
                self._turn.wait()
        error: Optional[str] = None
        result: Optional[StreamBatchResult] = None
        if self.failed:
            error = f"stream already failed: {self.failure}"
        else:
            try:
                result = self.cleaner.process_batch(job.batch)
            except Exception as exc:  # noqa: BLE001 - job-level failure boundary
                error = f"{type(exc).__name__}: {exc}"
                self.failed = True
                self.failure = error
        job.finish(result, error)
        # The input table is no longer needed once processed; dropping the
        # reference keeps long-running streams from pinning every batch.
        job.batch = None
        with self._turn:
            self._completed += 1
            if error:
                self._failed_count += 1
            # Trim old completed jobs (never pending/running ones) so the
            # retained list stays bounded.
            while (
                len(self.jobs) > self.max_retained_jobs and self.jobs and self.jobs[0].done
            ):
                self.jobs.pop(0)
            self._turn.notify_all()
        self._capacity.release()

    # -- introspection ---------------------------------------------------------------
    @property
    def pending_batches(self) -> int:
        with self._lock:
            return self._submitted - self._completed

    @property
    def submitted_batches(self) -> int:
        with self._lock:
            return self._submitted

    @property
    def completed_batches(self) -> int:
        with self._lock:
            return self._completed

    @property
    def failed_batches(self) -> int:
        with self._lock:
            return self._failed_count

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._turn:
            while self._completed < self._submitted:
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    return False
                self._turn.wait(timeout=remaining)
            return True


@dataclass
class StreamServiceStats:
    """Service-level snapshot across all streams."""

    streams: int = 0
    batches_submitted: int = 0
    batches_completed: int = 0
    batches_failed: int = 0
    per_stream: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "streams": self.streams,
            "batches_submitted": self.batches_submitted,
            "batches_completed": self.batches_completed,
            "batches_failed": self.batches_failed,
            "per_stream": self.per_stream,
        }


class StreamService:
    """Dispatch micro-batches of many streams onto a shared worker pool."""

    def __init__(
        self,
        workers: int = 2,
        max_pending_batches: int = 4,
        llm_factory: Optional[Any] = None,
        config: Optional[CleaningConfig] = None,
        detect_drift: bool = True,
        prime_rows: int = 0,
        metrics_registry: Optional[MetricsRegistry] = None,
    ):
        if max_pending_batches < 1:
            raise ValueError(f"max_pending_batches must be >= 1, got {max_pending_batches}")
        self.max_pending_batches = max_pending_batches
        self.registry = metrics_registry if metrics_registry is not None else MetricsRegistry()
        self._submitted_counter = self.registry.counter(
            "repro_stream_batches_submitted_total", help="Micro-batches accepted across all streams"
        )
        self._batches_counter = self.registry.counter(
            "repro_stream_batches_total",
            help="Finished micro-batches by outcome",
            label_names=("status",),
        )
        self._batch_seconds = self.registry.histogram(
            "repro_stream_batch_seconds",
            help="Per-batch processing time (ordering wait excluded)",
            max_samples=4096,
        )
        self.llm_factory = llm_factory
        self.config = config
        self.detect_drift = detect_drift
        self.prime_rows = prime_rows
        self._streams: Dict[str, ManagedStream] = {}
        self._lock = threading.Lock()
        self.pool = WorkerPool(
            workers=workers,
            execute=self._execute,
            thread_name="repro-stream",
        )

    # -- stream management ----------------------------------------------------------
    def create_stream(
        self,
        name: str,
        llm: Optional[LLMClient] = None,
        config: Optional[CleaningConfig] = None,
        max_pending_batches: Optional[int] = None,
        priority: int = 0,
        prime_rows: Optional[int] = None,
    ) -> ManagedStream:
        """Register a new named stream (its cleaner primes on the first batch,
        or buffers toward ``prime_rows`` when a priming window is set)."""
        with self._lock:
            if name in self._streams:
                raise ValueError(f"Stream {name!r} already exists")
            if llm is None:
                llm = self.llm_factory() if self.llm_factory is not None else None
            cleaner = StreamingCleaner(
                name=name,
                llm=llm,
                config=config or self.config,
                detect_drift=self.detect_drift,
                prime_rows=self.prime_rows if prime_rows is None else prime_rows,
            )
            stream = ManagedStream(
                name,
                cleaner,
                max_pending_batches or self.max_pending_batches,
                priority=priority,
            )
            self._streams[name] = stream
            return stream

    def stream(self, name: str) -> ManagedStream:
        with self._lock:
            if name not in self._streams:
                raise KeyError(f"Unknown stream {name!r}; streams: {sorted(self._streams)}")
            return self._streams[name]

    def get_or_create_stream(self, name: str, **kwargs: Any) -> ManagedStream:
        """Return the named stream, registering it on first use.

        The named-stream registry pattern network gateways need: the first
        batch posted to a stream name creates it, later batches reuse it.
        Creation kwargs are only applied by whichever caller wins the race;
        they are ignored when the stream already exists.
        """
        with self._lock:
            stream = self._streams.get(name)
        if stream is not None:
            return stream
        try:
            return self.create_stream(name, **kwargs)
        except ValueError:
            # Only a lost create race is recoverable (the winner's stream is
            # authoritative); any other ValueError is a real argument error.
            with self._lock:
                existing = self._streams.get(name)
            if existing is not None:
                return existing
            raise

    def has_stream(self, name: str) -> bool:
        with self._lock:
            return name in self._streams

    def stream_names(self) -> List[str]:
        with self._lock:
            return sorted(self._streams)

    # -- submission -------------------------------------------------------------------
    def submit(
        self,
        stream_name: str,
        batch: Table,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> StreamBatchJob:
        """Queue one micro-batch; blocks when the stream's queue is full.

        With ``block=False`` (or when ``timeout`` elapses) a full queue
        raises :class:`StreamBackpressure` instead — producers that cannot
        wait should shed load explicitly rather than queue unboundedly.
        """
        stream = self.stream(stream_name)
        stream.reserve(block=block, timeout=timeout)
        try:
            # Sequence assignment and enqueue must be one atomic step: if a
            # concurrent producer enqueued sequence n+1 before n, a lone
            # worker could pop n+1 first and wait forever for n.
            with stream._submit_lock:
                job = StreamBatchJob(stream, batch, stream.next_sequence(), stream.priority)
                stream.jobs.append(job)
                self.pool.submit(job)
        except BaseException:
            stream._capacity.release()
            raise
        self._submitted_counter.inc()
        return job

    def submit_all(self, stream_name: str, batches: Iterable[Table]) -> List[StreamBatchJob]:
        return [self.submit(stream_name, batch) for batch in batches]

    # -- lifecycle ----------------------------------------------------------------------
    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every stream has drained its pending batches."""
        with self._lock:
            streams = list(self._streams.values())
        deadline = None if timeout is None else time.perf_counter() + timeout
        for stream in streams:
            remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
            if not stream.wait_idle(timeout=remaining):
                return False
        return True

    def shutdown(self, wait: bool = True) -> None:
        self.pool.shutdown(wait=wait)

    def __enter__(self) -> "StreamService":
        self.pool.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    # -- introspection ---------------------------------------------------------------------
    def stats(self) -> StreamServiceStats:
        with self._lock:
            streams = dict(self._streams)
        snapshot = StreamServiceStats(streams=len(streams))
        for name, stream in streams.items():
            snapshot.batches_submitted += stream.submitted_batches
            snapshot.batches_completed += stream.completed_batches
            snapshot.batches_failed += stream.failed_batches
            snapshot.per_stream[name] = {
                "pending": stream.pending_batches,
                "failed": stream.failed,
                **stream.cleaner.stats.to_dict(),
            }
        return snapshot

    # -- pool callback ------------------------------------------------------------------------
    def _execute(self, job: StreamBatchJob) -> None:
        job.stream.run_in_order(job)
        self._batches_counter.inc(status="failed" if job.error else "succeeded")
        if job.result is not None:
            self._batch_seconds.observe(job.result.seconds)
