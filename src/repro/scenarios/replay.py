"""The traffic-replay harness: scenarios driven through the live paths.

Two modes over one report shape:

* ``inprocess`` — the scenario's micro-batches feed a
  :class:`~repro.stream.engine.StreamingCleaner` directly (fast enough for
  tier-1); span names are collected under a forced ``scenario.replay`` root
  so drift assertions ("a ``stream.replan`` span happened") work even with
  tracing globally off.
* ``http`` — a real :func:`~repro.server.http.make_server` gateway is
  booted on an ephemeral port and fed a **mixed workload**: the stream
  batches via ``POST /v1/streams/{name}/batches`` (with 429 back-off) and
  the whole dirty table as a batch job via ``POST /v1/jobs``.  The new
  ``GET /v1/streams/{name}/result`` endpoint then yields the cumulative
  stream output, which is asserted byte-identical to an in-process
  reference stream fed the same CSV-round-tripped batches; the job result
  is asserted byte-identical to the in-process pipeline; and for
  ``batch_parity`` scenarios the stream CSV must equal the job CSV — the
  streaming path and the batch path agreeing on the same bytes over HTTP.

The harness keeps no metrics of its own: the :class:`ReplayReport` says
what one replay did, and in ``http`` mode the gateway's registry counts
the requests, jobs and batches it served, as for any other client.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Union

from repro.core.context import CleaningConfig
from repro.core.pipeline import CocoonCleaner
from repro.dataframe.io import read_csv_text, to_csv_text
from repro.llm.simulated import SimulatedSemanticLLM
from repro.obs import get_tracer
from repro.scenarios.models import ScenarioError
from repro.scenarios.spec import GeneratedScenario, ScenarioSpec, generate
from repro.server.gateway import CleaningGateway
from repro.server.http import make_server
from repro.stream.engine import StreamingCleaner

#: Span names whose presence/absence the drift assertions are defined over.
REPLAN_SPAN = "stream.replan"
PRIME_SPAN = "stream.prime"


@dataclass
class ReplayReport:
    """What one scenario replay did and proved."""

    scenario: str
    mode: str
    batches: int = 0
    rows_streamed: int = 0
    primes: int = 0
    replans: int = 0
    replayed_batches: int = 0
    stream_llm_calls: int = 0
    retractions: int = 0
    drifted_columns: List[str] = field(default_factory=list)
    #: Sorted unique span names observed during the replay.
    span_names: List[str] = field(default_factory=list)
    #: HTTP stream output == in-process reference stream (http mode only).
    stream_parity: Optional[bool] = None
    #: Stream output == whole-table batch pipeline (asserted when the spec
    #: sets ``batch_parity``).
    batch_parity: Optional[bool] = None
    #: HTTP batch-job output == in-process pipeline (http mode only).
    job_parity: Optional[bool] = None
    backpressure_retries: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "batches": self.batches,
            "rows_streamed": self.rows_streamed,
            "primes": self.primes,
            "replans": self.replans,
            "replayed_batches": self.replayed_batches,
            "stream_llm_calls": self.stream_llm_calls,
            "retractions": self.retractions,
            "drifted_columns": self.drifted_columns,
            "span_names": self.span_names,
            "stream_parity": self.stream_parity,
            "batch_parity": self.batch_parity,
            "job_parity": self.job_parity,
            "backpressure_retries": self.backpressure_retries,
            "seconds": round(self.seconds, 6),
        }


class ReplayMismatch(AssertionError):
    """A replay parity or drift expectation did not hold."""


def _resolve(scenario: Union[ScenarioSpec, GeneratedScenario]) -> GeneratedScenario:
    if isinstance(scenario, GeneratedScenario):
        return scenario
    if isinstance(scenario, ScenarioSpec):
        return generate(scenario)
    raise ScenarioError(
        f"replay_scenario needs a ScenarioSpec or GeneratedScenario, got {type(scenario).__name__}"
    )


def _scenario_config(generated: GeneratedScenario) -> Optional[CleaningConfig]:
    if generated.spec.cleaning_issues is None:
        return None
    return CleaningConfig(enabled_issues=list(generated.spec.cleaning_issues))


def _span_names(trace_ids: List[str]) -> Set[str]:
    tracer = get_tracer()
    names: Set[str] = set()

    def walk(doc: Dict[str, Any]) -> None:
        names.add(doc["name"])
        for child in doc.get("children", ()):
            walk(child)

    for trace_id in trace_ids:
        for doc in tracer.trace_tree(trace_id):
            walk(doc)
    return names


def _check_drift_expectation(generated: GeneratedScenario, report: ReplayReport) -> None:
    """Enforce the spec's drift claim.

    ``expect_drift=True`` always demands a ``stream.replan`` span.  The
    negative claim is only enforced for specs that declared a traffic
    timeline (phases): a phase-less scenario streamed in arbitrary default
    batches makes no promise about what the drift detector sees — real data
    can drift batch-to-batch purely through row ordering.
    """
    spec = generated.spec
    saw_replan = REPLAN_SPAN in report.span_names and report.replans > 0
    if spec.expect_drift and not saw_replan:
        raise ReplayMismatch(
            f"{spec.name}: expected the stream to re-plan but it never did "
            f"(spans: {report.span_names}, replans={report.replans})"
        )
    if not spec.expect_drift and spec.phases and (
        report.replans or REPLAN_SPAN in report.span_names
    ):
        raise ReplayMismatch(
            f"{spec.name}: stationary scenario re-planned "
            f"(replans={report.replans}, drifted={report.drifted_columns})"
        )


def replay_inprocess(
    scenario: Union[ScenarioSpec, GeneratedScenario], check: bool = True
) -> ReplayReport:
    """Stream the scenario through a :class:`StreamingCleaner`, no sockets.

    Span names are collected under a forced ``scenario.replay`` root span,
    so the drift assertion works regardless of the global tracing switch.
    With ``check=True`` (default) drift/parity expectations raise
    :class:`ReplayMismatch` instead of only being reported.
    """
    generated = _resolve(scenario)
    spec = generated.spec
    config = _scenario_config(generated)
    report = ReplayReport(scenario=spec.name, mode="inprocess")
    started = time.perf_counter()

    trace_id = f"scenario-{spec.name}"
    tracer = get_tracer()
    cleaner = StreamingCleaner(
        name=spec.table_name,
        llm=SimulatedSemanticLLM(),
        config=config,
        detect_drift=True,
        prime_rows=generated.prime_rows,
    )
    drifted: List[str] = []
    with tracer.span("scenario.replay", force=True, trace_id=trace_id, scenario=spec.name):
        for batch in generated.batches():
            result = cleaner.process_batch(batch)
            drifted.extend(result.drifted_columns)
            report.batches += 1
            report.rows_streamed += batch.num_rows
    report.span_names = sorted(_span_names([trace_id]))
    report.primes = cleaner.stats.primes
    report.replans = cleaner.stats.replans
    report.replayed_batches = cleaner.stats.replayed_batches
    report.stream_llm_calls = cleaner.stats.llm_calls
    report.retractions = cleaner.stats.retractions
    report.drifted_columns = sorted(set(drifted))

    if spec.batch_parity:
        reference = CocoonCleaner(llm=SimulatedSemanticLLM(), config=config).clean(
            generated.dataset.dirty
        )
        report.batch_parity = to_csv_text(cleaner.cleaned_table()) == to_csv_text(
            reference.cleaned_table
        )
        if check and not report.batch_parity:
            raise ReplayMismatch(
                f"{spec.name}: stream output diverged from the batch pipeline"
            )
    report.seconds = time.perf_counter() - started
    if check:
        _check_drift_expectation(generated, report)
    return report


# -- the HTTP side -----------------------------------------------------------------


class _Client:
    """A tiny urllib JSON client bound to one base URL."""

    def __init__(self, base: str, timeout: float = 60.0):
        self.base = base
        self.timeout = timeout

    def call(self, path: str, payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.base + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return json.loads(response.read())


def replay_http(
    scenario: Union[ScenarioSpec, GeneratedScenario],
    workers: int = 2,
    stream_workers: int = 1,
    max_pending_batches: int = 2,
    check: bool = True,
    timeout: float = 120.0,
) -> ReplayReport:
    """Replay a scenario through a booted HTTP gateway (mixed workload).

    Boots :func:`make_server` on an ephemeral port, posts the scenario's
    micro-batches to the stream endpoint (backing off on 429) while the
    full dirty table runs as a batch job, then asserts:

    * **stream parity** — the served stream result equals an in-process
      reference stream fed the same CSV-round-tripped batches;
    * **job parity** — the served job result equals the in-process
      pipeline on the same CSV;
    * **batch parity** (when the spec promises it) — the stream CSV equals
      the job CSV: both HTTP paths agree byte-for-byte;
    * **drift** — ``stream.replan`` spans appear exactly when
      ``expect_drift`` says they must.
    """
    generated = _resolve(scenario)
    spec = generated.spec
    config = _scenario_config(generated)
    report = ReplayReport(scenario=spec.name, mode="http")
    started = time.perf_counter()

    tracer = get_tracer()
    tracing_before = tracer.enabled
    traces_before = set(tracer.trace_ids())
    tracer.enabled = True  # worker-thread stream spans need a root to attach to
    gateway = CleaningGateway(
        workers=workers,
        stream_workers=stream_workers,
        max_pending_batches=max_pending_batches,
        config=config,
        stream_prime_rows=generated.prime_rows,
    )
    server = make_server(gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = _Client(f"http://127.0.0.1:{server.port}", timeout=timeout)
    deadline = started + timeout

    def wait_until(predicate, what: str) -> None:
        while not predicate():
            if time.perf_counter() > deadline:
                raise ReplayMismatch(f"{spec.name}: timed out waiting for {what}")
            time.sleep(0.02)

    try:
        batches = generated.batches()
        dirty_csv = to_csv_text(generated.dataset.dirty)
        # The mixed workload: the batch job races the stream batches.
        job = client.call("/v1/jobs", {"csv": dirty_csv, "name": spec.table_name})
        for batch in batches:
            payload = {"csv": to_csv_text(batch), "name": spec.table_name}
            while True:
                try:
                    client.call(f"/v1/streams/{spec.table_name}/batches", payload)
                    break
                except urllib.error.HTTPError as error:
                    if error.code != 429:
                        raise
                    error.read()
                    report.backpressure_retries += 1
                    if time.perf_counter() > deadline:
                        raise ReplayMismatch(f"{spec.name}: stuck in backpressure")
                    time.sleep(0.05)
            report.batches += 1
            report.rows_streamed += batch.num_rows

        wait_until(
            lambda: client.call(f"/v1/jobs/{job['job_id']}")["done"], "the batch job"
        )
        job_result = client.call(f"/v1/jobs/{job['job_id']}/result")
        if job_result["status"] != "succeeded":
            raise ReplayMismatch(f"{spec.name}: batch job failed: {job_result.get('error')}")

        wait_until(
            lambda: (
                lambda s: s["pending_batches"] == 0 and not s["failed"]
            )(client.call(f"/v1/streams/{spec.table_name}")),
            "the stream to drain",
        )
        stream_result = client.call(f"/v1/streams/{spec.table_name}/result")
        stats = stream_result["stats"]
        report.primes = stats["primes"]
        report.replans = stats["replans"]
        report.replayed_batches = stats["replayed_batches"]
        report.stream_llm_calls = stats["llm_calls"]
        report.retractions = stats["retractions"]

        # In-process references consume the *same* CSV round-trip the server
        # parsed, so every comparison is bytes-vs-bytes on equal inputs.
        reference_stream = StreamingCleaner(
            name=spec.table_name,
            llm=SimulatedSemanticLLM(),
            config=config,
            detect_drift=True,
            prime_rows=generated.prime_rows,
        )
        drifted: List[str] = []
        for batch in batches:
            rt = read_csv_text(to_csv_text(batch), name=spec.table_name, infer_types=False)
            drifted.extend(reference_stream.process_batch(rt).drifted_columns)
        report.drifted_columns = sorted(set(drifted))
        report.stream_parity = stream_result["csv"] == to_csv_text(
            reference_stream.cleaned_table()
        )
        reference_job = CocoonCleaner(llm=SimulatedSemanticLLM(), config=config).clean(
            read_csv_text(dirty_csv, name=spec.table_name, infer_types=False)
        )
        report.job_parity = job_result["csv"] == to_csv_text(reference_job.cleaned_table)
        if spec.batch_parity:
            report.batch_parity = stream_result["csv"] == job_result["csv"]
    finally:
        server.shutdown()
        server.server_close()
        gateway.shutdown()
        thread.join(timeout=10)
        new_traces = [t for t in get_tracer().trace_ids() if t not in traces_before]
        report.span_names = sorted(_span_names(new_traces))
        tracer.enabled = tracing_before

    report.seconds = time.perf_counter() - started
    if check:
        if not report.stream_parity:
            raise ReplayMismatch(
                f"{spec.name}: HTTP stream result diverged from the in-process reference"
            )
        if not report.job_parity:
            raise ReplayMismatch(
                f"{spec.name}: HTTP job result diverged from the in-process pipeline"
            )
        if spec.batch_parity and not report.batch_parity:
            raise ReplayMismatch(
                f"{spec.name}: stream CSV and batch-job CSV disagree over HTTP"
            )
        _check_drift_expectation(generated, report)
    return report


def replay_scenario(
    scenario: Union[ScenarioSpec, GeneratedScenario],
    mode: str = "inprocess",
    **kwargs: Any,
) -> ReplayReport:
    """Replay one scenario in the chosen mode (``inprocess`` or ``http``)."""
    if mode == "inprocess":
        return replay_inprocess(scenario, **kwargs)
    if mode == "http":
        return replay_http(scenario, **kwargs)
    raise ScenarioError(f"unknown replay mode {mode!r}; use 'inprocess' or 'http'")
