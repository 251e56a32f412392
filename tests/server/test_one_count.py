"""Every serving event is counted once: JSON ``/metrics`` reads the scrape.

One :class:`CleaningGateway` behind a live HTTP server takes a mixed
workload: jobs (one refused with 429), stream batches (one refused with
429), a stream whose schema breaks so its later batches fail fast, and a
``with`` block left by an exception while a job and a batch wait.  Every
number in the JSON ``/metrics`` document must then equal the sample the
Prometheus scrape renders for it, and each batch and job must appear under
exactly one status.
"""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.llm.simulated import SimulatedSemanticLLM
from repro.server.gateway import CleaningGateway
from repro.server.http import make_server

CITIES_CSV = "city,population\nnew york,8000000\nNew York,8000000\nN/A,42\nboston,650000\n"
# Other column names, so the held job's prompts miss the shared cache.
BEERS_CSV = "beer,ounces\nipa,12.0 oz\nstout,12.0 ounce\nlager,N/A\n"

_SAMPLE = re.compile(r'^(\w+)(?:\{(\w+)="([^"]*)"\})? (\S+)$')


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _scrape(text):
    """``{(family, label value or None): value}`` for the one-label samples."""
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            name, _, label, value = match.groups()
            samples[(name, label)] = float(value)
    return samples


def test_json_metrics_equal_the_scrape_and_each_event_counts_once():
    gate, job_entered, batch_entered = threading.Event(), threading.Event(), threading.Event()
    hold_jobs = threading.Event()

    class HeldLLM(SimulatedSemanticLLM):
        def _complete(self, prompt, system=None):
            if hold_jobs.is_set():
                job_entered.set()
                assert gate.wait(timeout=30), "test gate was never opened"
            return super()._complete(prompt, system=system)

    gateway = CleaningGateway(
        workers=1,
        stream_workers=1,
        max_pending_jobs=2,
        max_pending_batches=2,
        llm_factory=HeldLLM,
    )
    server = make_server(gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    held = gateway.streams.get_or_create_stream("held")
    original = held.cleaner.process_batch

    def gated(batch):
        batch_entered.set()
        assert gate.wait(timeout=30), "test gate was never opened"
        return original(batch)

    held.cleaner.process_batch = gated
    try:
        with pytest.raises(KeyboardInterrupt), gateway:
            for _ in range(2):
                assert _post(base, "/v1/streams/ok/batches", {"csv": CITIES_CSV})[0] == 202
            # The second batch breaks the schema; the third then fails fast.
            broken = ({"csv": CITIES_CSV}, {"columns": {"other": ["x"]}}, {"csv": CITIES_CSV})
            for payload in broken:
                assert _post(base, "/v1/streams/broken/batches", payload)[0] == 202
            assert gateway.streams.stream("broken").wait_idle(timeout=60)
            assert gateway.streams.stream("ok").wait_idle(timeout=60)

            hold_jobs.set()
            status, running = _post(base, "/v1/jobs", {"csv": BEERS_CSV, "name": "running"})
            assert status == 202 and job_entered.wait(timeout=30)
            status, waiting = _post(base, "/v1/jobs", {"csv": BEERS_CSV, "name": "waiting"})
            assert status == 202
            assert _post(base, "/v1/jobs", {"csv": BEERS_CSV, "name": "refused"})[0] == 429

            assert _post(base, "/v1/streams/held/batches", {"csv": CITIES_CSV})[0] == 202
            assert batch_entered.wait(timeout=30)
            assert _post(base, "/v1/streams/held/batches", {"csv": CITIES_CSV})[0] == 202
            assert _post(base, "/v1/streams/held/batches", {"csv": CITIES_CSV})[0] == 429
            raise KeyboardInterrupt
    finally:
        gate.set()
    try:
        assert gateway.service.job(running["job_id"]).wait(timeout=60) is not None
        assert held.wait_idle(timeout=60)
        assert str(gateway.service.job(waiting["job_id"]).status) == "cancelled"
        doc = gateway.metrics()
        text = gateway.metrics_text()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    scraped = _scrape(text)

    def sample(name, label=None):
        return scraped.get((name, label), 0.0)

    for key, value in doc["gateway"].items():
        assert value == sample("repro_gateway_events_total", key), key
    # Jobs and batches are counted by their services, not as gateway events.
    assert doc["gateway"] == {"requests": 11, "rejected_saturated": 1, "rejected_backpressure": 1}
    jobs = doc["jobs"]
    assert jobs["submitted"] == sample("repro_service_jobs_submitted_total")
    for status in ("succeeded", "failed", "cancelled"):
        assert jobs[status] == sample("repro_service_jobs_total", status), status
    assert jobs["pending"] == sample("repro_service_pending_jobs")
    assert jobs["queue_depth"] == sample("repro_service_queue_depth")
    streams = doc["streams"]
    statuses = ("succeeded", "failed", "cancelled")
    assert streams["submitted"] == sample("repro_stream_batches_submitted_total")
    for status in statuses:
        assert streams[status] == sample("repro_stream_batches_total", status), status
    assert streams["queue_depth"] == sample("repro_stream_queue_depth")
    assert streams["count"] == 3
    assert streams["pending_per_stream"] == {"held": 0, "ok": 0, "broken": 0}

    # The workload's own figures: each job and batch under one status.
    assert (jobs["submitted"], jobs["succeeded"], jobs["cancelled"], jobs["failed"]) == (2, 1, 1, 0)
    assert [streams[status] for status in statuses] == [4, 2, 1]
    assert streams["submitted"] == 7
    for gone in (
        "repro_cache_hits",
        "repro_cache_misses",
        "repro_cache_hit_rate",
        "repro_scenario_events_total",
        'event="jobs_submitted"',
        'event="batches_submitted"',
    ):
        assert gone not in text, gone
