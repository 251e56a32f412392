"""Many concurrent streams on one thread pool, with backpressure.

One :class:`~repro.stream.engine.StreamingCleaner` is inherently sequential
— batch *n+1* replays against state batch *n* built.  A service ingesting
many independent streams (one per table / tenant / landing directory) still
wants them cleaned concurrently.  :class:`StreamService` does exactly that:

* every stream gets its own :class:`StreamingCleaner`;
* micro-batches become :class:`StreamBatchJob` objects in their stream's
  deque, and a :class:`~concurrent.futures.ThreadPoolExecutor` runs them;
* **per-stream order without turn-taking**: at most one executor task per
  stream is queued or running.  The task runs the stream's next batch and
  re-queues the stream only if more batches are waiting, so no worker ever
  waits on another stream's batch and streams take turns on the pool;
* **bounded-queue backpressure**: each stream holds at most
  ``max_pending_batches`` unfinished batches.  ``submit`` blocks the
  producer (or raises :class:`StreamBackpressure` with ``block=False`` /
  on timeout), so a fast producer cannot grow the queue without bound —
  the ingestion contract a production service needs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.context import CleaningConfig
from repro.dataframe.table import Table
from repro.llm.base import LLMClient
from repro.obs.metrics import MetricsRegistry
from repro.stream.engine import StreamBatchResult, StreamingCleaner


class StreamBackpressure(RuntimeError):
    """The stream's bounded batch queue is full and the caller chose not to wait."""


class StreamBatchJob:
    """One micro-batch submitted to a stream; ``sequence`` is its index in it."""

    def __init__(self, stream: "ManagedStream", batch: Table, sequence: int):
        self.stream = stream
        self.batch = batch
        self.sequence = sequence
        self.result: Optional[StreamBatchResult] = None
        self.error: Optional[str] = None
        self._done = threading.Event()

    def finish(self, result: Optional[StreamBatchResult], error: Optional[str]) -> None:
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
    """A named stream plus its batch deque and backpressure state."""

    #: Completed jobs kept for inspection; older ones are trimmed so a
    #: long-running stream does not grow memory without bound.
    max_retained_jobs = 1024

    def __init__(self, name: str, cleaner: StreamingCleaner, max_pending_batches: int):
        self.name = name
        self.cleaner = cleaner
        self.max_pending_batches = max_pending_batches
        self.jobs: List[StreamBatchJob] = []
        self.failed = False
        self.failure: Optional[str] = None
        self._waiting: Deque[StreamBatchJob] = deque()
        # True while an executor task for this stream is queued or running.
        self._scheduled = False
        self._submitted = 0
        self._completed = 0
        self._failed_count = 0
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._capacity = threading.Semaphore(max_pending_batches)

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

    def enqueue(self, batch: Table) -> Tuple[StreamBatchJob, bool]:
        """Append one batch; True when the stream needs an executor task."""
        with self._lock:
            job = StreamBatchJob(self, batch, self._submitted)
            self._submitted += 1
            self.jobs.append(job)
            self._waiting.append(job)
            needs_task = not self._scheduled
            self._scheduled = True
            return job, needs_task

    # -- worker side --------------------------------------------------------------
    def run_next(self) -> Tuple[Optional[StreamBatchJob], bool]:
        """Run the oldest waiting batch; True when more batches are waiting.

        Only the stream's single executor task calls this, so batches run
        one at a time and in submission order.
        """
        with self._lock:
            if not self._waiting:  # cancelled by an exiting service meanwhile
                self._scheduled = False
                return None, False
            job = self._waiting.popleft()
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
        with self._settled:
            self._completed += 1
            if error:
                self._failed_count += 1
            # Trim old completed jobs (never pending/running ones) so the
            # retained list stays bounded.
            while (
                len(self.jobs) > self.max_retained_jobs and self.jobs and self.jobs[0].done
            ):
                self.jobs.pop(0)
            more = bool(self._waiting)
            self._scheduled = more
            self._settled.notify_all()
        self._capacity.release()
        return job, more

    def cancel_waiting(self) -> None:
        """Settle every batch not yet started as failed, without running it."""
        with self._settled:
            cancelled = list(self._waiting)
            self._waiting.clear()
            for job in cancelled:
                job.finish(None, "cancelled: stream service shut down")
            self._completed += len(cancelled)
            self._failed_count += len(cancelled)
            self._settled.notify_all()
        for _ in cancelled:
            self._capacity.release()

    # -- introspection ---------------------------------------------------------------
    @property
    def waiting_batches(self) -> int:
        """Batches submitted but not yet started."""
        with self._lock:
            return len(self._waiting)

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
        with self._settled:
            while self._completed < self._submitted:
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    return False
                self._settled.wait(timeout=remaining)
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
    """Run the micro-batches of many streams on one thread pool."""

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
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
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
            help="Per-batch processing time (queue wait excluded)",
            max_samples=4096,
        )
        self.llm_factory = llm_factory
        self.config = config
        self.detect_drift = detect_drift
        self.prime_rows = prime_rows
        self._streams: Dict[str, ManagedStream] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._executor = ThreadPoolExecutor(workers, thread_name_prefix="repro-stream")

    # -- stream management ----------------------------------------------------------
    def create_stream(
        self,
        name: str,
        llm: Optional[LLMClient] = None,
        config: Optional[CleaningConfig] = None,
        max_pending_batches: Optional[int] = None,
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
            stream = ManagedStream(name, cleaner, max_pending_batches or self.max_pending_batches)
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
            # Checked and enqueued under the lock shutdown() takes before
            # closing the executor, so no accepted batch is left unscheduled.
            with self._lock:
                if self._closed:
                    raise RuntimeError("stream service has been shut down")
                job, needs_task = stream.enqueue(batch)
                if needs_task:
                    self._executor.submit(self._run_stream, stream)
        except BaseException:
            stream._capacity.release()
            raise
        self._submitted_counter.inc()
        return job

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
        """Stop accepting batches; with ``wait`` block until every stream drains."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "StreamService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)
        if exc_type is not None:
            # An exception (Ctrl-C included) is unwinding the block: cancel
            # the batches not yet started, so only the running ones hold up
            # the process's exit (executor threads are joined at exit).
            with self._lock:
                streams = list(self._streams.values())
            for stream in streams:
                stream.cancel_waiting()

    # -- introspection ---------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Batches waiting across all streams, not yet started by a worker."""
        with self._lock:
            streams = list(self._streams.values())
        return sum(stream.waiting_batches for stream in streams)

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

    # -- execution ---------------------------------------------------------------------------
    def _run_stream(self, stream: ManagedStream) -> None:
        """Run one batch, then hand the stream back to the pool if more wait.

        Re-queueing (rather than looping) lets other streams' batches run in
        between.  Once the executor is shut down it refuses new tasks; the
        stream's remaining batches then drain on this thread.
        """
        more = True
        while more:
            job, more = stream.run_next()
            if job is None:
                return
            self._batches_counter.inc(status="failed" if job.error else "succeeded")
            if job.result is not None:
                self._batch_seconds.observe(job.result.seconds)
            if more:
                try:
                    self._executor.submit(self._run_stream, stream)
                    return
                except RuntimeError:
                    pass
