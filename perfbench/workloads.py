"""The four workloads: set-up, the measured loop, and each one's oracle.

Every workload returns a :class:`Run`.  Each repeated operation (a clean, a
micro-batch, a served job) goes through :meth:`Arm.run`: in the untraced arm
it is only timed; in the traced arm every second operation runs with the
layer wrappers installed and its span tree is split by layer.

Correctness is checked outside the timed region, and every operation whose
check fails counts in ``Run.failed``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.context import ROW_ID_COLUMN
from repro.core.pipeline import CocoonCleaner
from repro.core.plan import extract_plan
from repro.dataframe.column import Column
from repro.dataframe.io import read_csv_text, to_csv_text
from repro.dataframe.table import Table
from repro.datasets.base import strict_differs
from repro.evaluation.metrics import Scores, evaluate_output_table
from repro.llm.simulated import SimulatedSemanticLLM
from repro.obs.lineage import values_strictly_differ
from repro.server.gateway import CleaningGateway
from repro.server.http import make_server
from repro.stream import StreamingCleaner
from repro.stream.state import table_level_survivors

from perfbench import inputs
from perfbench.clock import Clock
from perfbench.layers import Instrument, SpanLog, assert_pristine, self_times

#: Set-up, stream primes and the stream oracle's cleans are repeated this many
#: times per run; their metrics are medians.
REPEATS = 5
#: Served jobs are polled at this interval (seconds) until done.
POLL_SECONDS = 0.01
SERVER_WORKERS = 2
#: Primed streams fed the same micro-batches side by side.
STREAMS = 2


@dataclass(frozen=True)
class Size:
    """How much input a run gets; ``tiny`` exists for the benchmark's own tests."""

    clean_scale: float
    stream_batches_per_second: float
    stream_min_batches: int
    job_tables_per_second: float
    job_min_tables: int


SIZES = {
    "full": Size(1.0, 9.6, 0, 1.92, 0),
    "tiny": Size(0.05, 0, 8, 0, 3),
}


@dataclass
class Run:
    """Everything one workload measured, before it becomes metrics."""

    setup_s: List[float] = field(default_factory=list)
    #: Full-table ``CocoonCleaner.clean`` calls.
    clean_s: List[float] = field(default_factory=list)
    #: Cold operations: nothing primed or cached yet.
    prime_s: List[float] = field(default_factory=list)
    #: One unit handed to the cleaner in one call, in run order.
    batch_s: List[float] = field(default_factory=list)
    batch_rows: int = 0
    #: One request as the caller sees it.
    job_s: List[float] = field(default_factory=list)
    f1: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Traced arm only: operation walls with and without the wrappers.
    traced_s: List[float] = field(default_factory=list)
    untraced_s: List[float] = field(default_factory=list)
    layer_s: Dict[str, float] = field(default_factory=dict)
    #: Traced arm only: per-layer figures the workload reads off its results.
    extra: Dict[str, float] = field(default_factory=dict)
    instrument: Optional[Instrument] = None

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


class Arm:
    """Runs operations untraced, or alternately untraced and traced."""

    def __init__(self, trace: bool, span_log: Optional[Path] = None):
        self.trace = trace
        self.clock = Clock()
        self.instrument = Instrument() if trace else None
        self._log = SpanLog(span_log) if trace and span_log is not None else None
        self.layer_s: Dict[str, float] = {}
        self.traced_s: List[float] = []
        self.untraced_s: List[float] = []
        if not trace:
            assert_pristine()

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """``(result, reference seconds)`` of untraced work outside the operations."""
        result, seconds, _ = self.clock.time(fn)
        return result, seconds

    def run(self, fn: Callable[[], Any], traced: bool, root: str = "core:operation") -> Tuple[Any, float]:
        """One operation: ``(result, reference seconds)``."""
        if not (self.trace and traced):
            result, seconds, _ = self.clock.time(fn)
            if self.trace:
                self.untraced_s.append(seconds)
            return result, seconds
        instrument = self.instrument

        def traced_call() -> Any:
            with instrument.operation(root):
                return fn()

        with instrument.installed():
            result, seconds, wall = self.clock.time(traced_call)
        spans = instrument.take_spans()
        if self._log is not None:
            self._log.write(spans)
        # Span times are wall times; scale them like the operation's.
        scale = seconds / wall if wall else 1.0
        for bucket, busy in self_times(spans).items():
            self.layer_s[bucket] = self.layer_s.get(bucket, 0.0) + busy * scale
        self.traced_s.append(seconds)
        return result, seconds

    def finish(self, run: Run) -> Run:
        if self._log is not None:
            self._log.close()
        if not self.trace:
            assert_pristine()
        run.traced_s, run.untraced_s = self.traced_s, self.untraced_s
        run.layer_s, run.instrument = self.layer_s, self.instrument
        return run


def _setup(run: Run, arm: Arm, fn: Callable[[], Any]) -> Any:
    """Run set-up ``REPEATS`` times, recording each; returns the last result."""
    result = None
    for _ in range(REPEATS):
        result, seconds = arm.timed(fn)
        run.setup_s.append(seconds)
    return result


def lineage_explains(result: Any, dirty: Table) -> bool:
    """True iff the clean's lineage names exactly the cells ``strict_differs`` flags."""
    recorder = result.lineage
    removed = recorder.removed_row_ids()
    survivors = [r for r in range(dirty.num_rows) if r not in removed]
    cleaned = result.cleaned_table
    if cleaned.num_rows != len(survivors):
        return False
    diff: Dict[Tuple[int, str], Tuple[Any, Any]] = {}
    for name in dirty.column_names:
        if name not in cleaned.column_names:
            continue
        before_values = dirty.column(name).values
        after_values = cleaned.column(name).values
        for position, row in enumerate(survivors):
            if strict_differs(before_values[row], after_values[position]):
                diff[(row, name)] = (before_values[row], after_values[position])
    cells = recorder.changed_cells()
    if set(cells) != set(diff):
        return False
    return not any(
        values_strictly_differ(cells[cell][0], before) or values_strictly_differ(cells[cell][1], after)
        for cell, (before, after) in diff.items()
    )


# -- clean-hospital, clean-beers ------------------------------------------------------------
def clean_table(dataset: str, scale: float, seed: int, seconds: float, arm: Arm, size: Size) -> Run:
    """Repeated ``clean()`` of one permuted registry table, each with a fresh LLM.

    Cleans start until ``seconds`` have passed, and at least two run, so every
    clean is checked byte for byte against the first.
    """
    run = Run()
    dirty, clean = _setup(run, arm, lambda: inputs.permuted_dataset(dataset, seed, scale * size.clean_scale))
    reference: Optional[Tuple[str, str]] = None
    started = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - started < seconds:
        result, elapsed = arm.run(
            lambda: CocoonCleaner(llm=SimulatedSemanticLLM()).clean(dirty), traced=index % 2 == 1
        )
        output = (to_csv_text(result.cleaned_table), result.sql_script)
        if reference is None:
            reference = output
            run.f1 = evaluate_output_table(dirty, clean, result.cleaned_table).f1
        run.check(output == reference and lineage_explains(result, dirty))
        # Every clean starts from a fresh cleaner and LLM: each one is cold,
        # is one batch (the whole table) and is one request.
        for series in (run.clean_s, run.prime_s, run.batch_s, run.job_s):
            series.append(elapsed)
        run.batch_rows += dirty.num_rows
        index += 1
    return arm.finish(run)


# -- stream-upsert ----------------------------------------------------------------------------
def _concat(tables: List[Table]) -> Table:
    first = tables[0]
    return Table(
        first.name,
        [
            Column(column.name, [v for t in tables for v in t.columns[j].values], column.dtype)
            for j, column in enumerate(first.columns)
        ],
    )


def _stream_reference(stream: inputs.UpsertStream, plan: Any, name: str) -> Tuple[Table, List[int]]:
    """One-shot oracle: ``plan`` replayed over every raw row, then the table-level fold.

    Returns the expected cumulative output and its row ids.
    """
    raw = _concat([stream.backfill] + stream.batches)
    row_ids = Column(ROW_ID_COLUMN, list(range(raw.num_rows)))
    replayed = plan.replay_row_local(Table(name, [row_ids] + raw.columns))
    ids = replayed.column(ROW_ID_COLUMN).values
    data = [replayed.column(c).values for c in plan.column_names]
    rows = [(int(row_id), row) for row_id, row in zip(ids, zip(*data))]
    survivors = table_level_survivors(plan.table_level_steps, rows, plan.column_names)
    columns = [
        Column(c, [row[j] for _, row in survivors], replayed.column(c).dtype)
        for j, c in enumerate(plan.column_names)
    ]
    return Table(name, columns), [row_id for row_id, _ in survivors]


def _stream_f1(stream: inputs.UpsertStream, output: Table, row_ids: List[int]) -> float:
    """Repair F1 of the cleaned output against the registry rows it re-sends.

    Each registry row is scored once (its last surviving copy): traffic
    re-sends a few hundred rows thousands of times, and weighting a row by
    how often the seed happened to draw it would make F1 a property of the
    seed rather than of the cleaner.
    """
    last_copy: Dict[int, int] = {}
    for position, row_id in enumerate(row_ids):
        last_copy[stream.sources[row_id]] = position
    sources = sorted(last_copy)
    output = output.select(stream.dirty.column_names).take([last_copy[s] for s in sources])
    return evaluate_output_table(stream.dirty.take(sources), stream.clean.take(sources), output).f1


def stream_upsert(seed: int, seconds: float, arm: Arm, size: Size) -> Run:
    """Prime drift-detecting streams on a backfill, then feed them the CDC micro-batches.

    The stream length is fixed by ``seconds`` (not by how many batches fit):
    per-batch cost grows with stream age, so a faster program must not be
    handed a longer stream.  Each batch goes to ``STREAMS`` primed streams in
    turn, so streams of the same age run side by side and the tail
    percentiles rest on twice the samples.
    """
    run = Run()
    batches = max(size.stream_min_batches, round(size.stream_batches_per_second * seconds))
    stream = _setup(run, arm, lambda: inputs.upsert_stream(seed, batches))
    name = stream.backfill.name
    cleaners: List[StreamingCleaner] = []
    for _ in range(REPEATS):
        cleaner = StreamingCleaner(name, llm=SimulatedSemanticLLM())
        primed, elapsed = arm.timed(lambda: cleaner.process_batch(stream.backfill))
        run.prime_s.append(elapsed)
        run.check(primed.primed)
        cleaners = (cleaners + [cleaner])[-STREAMS:]
    # The oracle derives its plan from fresh cleans of the priming window,
    # independently of the stream, and they must all agree.  The cleans are
    # spread over the stream, so their median spans the run rather than one
    # stretch of the shared machine's speed.
    scripts = set()
    checkpoints = {i * len(stream.batches) // REPEATS for i in range(REPEATS)}
    for index, batch in enumerate(stream.batches):
        if index in checkpoints:
            priming, elapsed = arm.timed(
                lambda: CocoonCleaner(llm=SimulatedSemanticLLM()).clean(stream.backfill.rename(name))
            )
            run.clean_s.append(elapsed)
            scripts.add(priming.sql_script)
        for cleaner in cleaners:
            result, elapsed = arm.run(lambda: cleaner.process_batch(batch), traced=index % 2 == 1)
            run.check(result.replayed and result.llm_calls == 0)
            run.batch_s.append(elapsed)
            run.job_s.append(elapsed)
            run.batch_rows += batch.num_rows
    plan = extract_plan(priming)
    expected, row_ids = _stream_reference(stream, plan, name)
    for cleaner in cleaners:
        actual = cleaner.cleaned_table()
        run.check(
            len(scripts) == 1
            and plan.to_dict() == cleaner.plan.to_dict()
            and expected.column_names == actual.column_names
            and [c.values for c in expected.columns] == [c.values for c in actual.columns]
        )
    run.f1 = _stream_f1(stream, expected, row_ids)
    steady = (len(stream.batches) or 1) * len(cleaners)
    run.extra.update(
        {
            "stream.retractions": sum(c.stats.retractions for c in cleaners) / steady,
            "stream.replans": sum(c.stats.replans for c in cleaners) / len(cleaners),
        }
    )
    return arm.finish(run)


# -- serve-jobs --------------------------------------------------------------------------------
class _Client:
    """One closed-loop HTTP client: submit, poll until done, fetch the result.

    Every request opens its own connection, as ``urllib`` does: over one
    kept-alive connection the median job took about 0.1 s longer, the
    signature of small writes waiting on a delayed ACK.
    """

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def _call(self, path: str, payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read().decode("utf-8"))

    def serve(self, job: inputs.Job) -> Tuple[Dict[str, Any], int]:
        """Returns the result document and the number of status polls."""
        job_id = self._call("/v1/jobs", {"csv": job.csv_text, "name": job.name})["job_id"]
        polls = 0
        while True:
            polls += 1
            if self._call(f"/v1/jobs/{job_id}")["done"]:
                break
            time.sleep(POLL_SECONDS)
        return self._call(f"/v1/jobs/{job_id}/result"), polls


class _Server:
    """An in-process ``repro.server`` on an ephemeral port."""

    def __init__(self) -> None:
        self.gateway = CleaningGateway(workers=SERVER_WORKERS, max_pending_jobs=8)
        self.http = make_server(self.gateway, port=0)
        self.thread = threading.Thread(target=self.http.serve_forever, daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.http.shutdown()
        self.thread.join()
        self.http.server_close()
        self.gateway.shutdown(wait=True)


def _pooled_f1(scores: List[Scores]) -> float:
    correct = sum(s.correct_repairs for s in scores)
    repairs = sum(s.total_repairs for s in scores)
    errors = sum(s.total_errors for s in scores)
    precision = correct / repairs if repairs else 0.0
    recall = correct / errors if errors else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def serve_jobs(seed: int, seconds: float, arm: Arm, size: Size) -> Run:
    """One closed-loop client against an in-process server with two workers.

    The job count is fixed by ``seconds`` (not by how many fit), so every run
    serves the same cold/warm mix.  At 25 seconds that is 48 tables, 96 jobs:
    p90 has ten jobs beyond it and each quarter of the run holds three whole
    rounds of the four datasets.
    """
    run = Run()
    tables = max(size.job_min_tables, round(size.job_tables_per_second * seconds))
    servers: List[_Server] = []

    def boot() -> Tuple[List[inputs.Job], _Server]:
        jobs = inputs.job_list(seed, tables)
        servers.append(_Server())
        return jobs, servers[-1]

    try:
        jobs, server = _setup(run, arm, boot)
        for spare in servers[:-1]:
            spare.close()
        del servers[:-1]
        client = _Client(server.http.port)
        served: List[Tuple[inputs.Job, Dict[str, Any]]] = []
        # (job seconds, service run seconds, service wait seconds, polls)
        traced_jobs: List[Tuple[float, float, float, int]] = []
        for index, job in enumerate(jobs):
            # Whole rounds (every dataset, cold and warm) share an arm, so both
            # arms of the traced run see the same job mix.
            traced = (index // (2 * len(inputs.JOB_DATASETS))) % 2 == 1
            (doc, polls), elapsed = arm.run(lambda: client.serve(job), traced, root="server:job")
            served.append((job, doc))
            # The server's own timings are wall seconds: scale them like the job's.
            scale = arm.clock.last_scale
            run_s = doc.get("run_seconds", 0.0) * scale
            run.job_s.append(elapsed)
            run.batch_s.append(run_s)
            run.batch_rows += job.rows
            if not job.warm:
                run.prime_s.append(elapsed)
            if arm.trace and traced:
                traced_jobs.append((elapsed, run_s, doc.get("wait_seconds", 0.0) * scale, polls))
    finally:
        for spare in servers:
            spare.close()

    expected: Dict[str, str] = {}
    scores: List[Scores] = []
    for job, doc in served:
        if job.name not in expected:
            table = read_csv_text(job.csv_text, name=job.name, infer_types=False)
            result, elapsed = arm.timed(lambda: CocoonCleaner(llm=SimulatedSemanticLLM()).clean(table))
            run.clean_s.append(elapsed)
            expected[job.name] = to_csv_text(result.cleaned_table)
            scores.append(evaluate_output_table(job.dirty, job.clean, result.cleaned_table))
        run.check(doc.get("status") == "succeeded" and doc.get("csv") == expected[job.name])
    run.f1 = _pooled_f1(scores)
    if traced_jobs:
        count = len(traced_jobs)
        job_s, run_s, wait_s, polls = (sum(column) for column in zip(*traced_jobs))
        run.extra.update(
            {
                "service.run_s": run_s / count,
                "service.wait_s": wait_s / count,
                "server.overhead_s": (job_s - run_s - wait_s) / count,
                # submit + polls + result fetch
                "server.requests_per_job": (polls + 2 * count) / count,
                "server.poll_useful_ratio": count / polls,
            }
        )
    return arm.finish(run)


WORKLOADS: Dict[str, Callable[[int, float, Arm, Size], Run]] = {
    "clean-hospital": lambda *args: clean_table("hospital", 1.0, *args),
    # Half the paper-scale rows (1205x10): at 2410 rows one clean takes 12-23 s
    # on a shared 2-core machine, too few cleans per run for a steady median.
    # The split stays LLM-bound (~60% llm, ~30% profiling).
    "clean-beers": lambda *args: clean_table("beers", 0.5, *args),
    "stream-upsert": stream_upsert,
    "serve-jobs": serve_jobs,
}
