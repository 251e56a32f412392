"""Observability surface of the server: traces, Prometheus text, health."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.server.gateway import CleaningGateway
from repro.server.http import make_server
from repro.obs.schema import validate_span

DIRTY_CSV = (
    "city,price\n"
    "new york,10\n"
    "New York,12\n"
    "N/A,11\n"
    "boston,9\n"
)


@pytest.fixture(scope="module")
def server():
    gateway = CleaningGateway(workers=2, stream_workers=1)
    httpd = make_server(gateway, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.port}"
    httpd.shutdown()
    thread.join()
    gateway.shutdown()


def _get(base, path, headers=None):
    request = urllib.request.Request(base + path, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        body = response.read().decode("utf-8")
        content_type = response.headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            body = json.loads(body)
        return response.status, dict(response.headers), body


def _submit_and_wait(base, name="obs-test"):
    payload = json.dumps({"csv": DIRTY_CSV, "name": name}).encode("utf-8")
    request = urllib.request.Request(
        base + "/v1/jobs", data=payload, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        job = json.loads(response.read())
    deadline = time.time() + 60
    while time.time() < deadline:
        _, _, doc = _get(base, f"/v1/jobs/{job['job_id']}")
        if doc["done"]:
            return job["job_id"]
        time.sleep(0.05)
    raise AssertionError("job did not finish")


class TestRequestIds:
    def test_incoming_request_id_is_echoed(self, server):
        _, headers, _ = _get(server, "/healthz", headers={"X-Request-Id": "my-rid-1"})
        assert headers["X-Request-Id"] == "my-rid-1"

    def test_request_id_generated_when_absent(self, server):
        _, first, _ = _get(server, "/healthz")
        _, second, _ = _get(server, "/healthz")
        assert first["X-Request-Id"]
        assert first["X-Request-Id"] != second["X-Request-Id"]

    def test_error_responses_carry_request_id(self, server):
        request = urllib.request.Request(
            server + "/no/such/route", headers={"X-Request-Id": "rid-404"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 404
        assert excinfo.value.headers["X-Request-Id"] == "rid-404"


class TestJobTrace:
    def test_trace_covers_every_layer(self, server):
        job_id = _submit_and_wait(server)
        _, _, doc = _get(server, f"/v1/jobs/{job_id}/trace")
        assert doc["job_id"] == job_id
        assert doc["trace_id"] and doc["trace_id"].startswith("req-")
        assert len(doc["spans"]) == 1
        for span in doc["spans"]:
            validate_span(span)
        names = set()

        def walk(span):
            names.add(span["name"])
            for child in span["children"]:
                walk(child)

        walk(doc["spans"][0])
        assert "server.request" in names
        assert "service.job" in names
        assert "pipeline.clean" in names
        assert any(name.startswith("operator.") for name in names)
        assert any(name.startswith("sql.") and name != "sql.query" for name in names)

    def test_unknown_job_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server + "/v1/jobs/999999/trace", timeout=30)
        assert excinfo.value.code == 404

    def test_tracing_disabled_gateway_returns_empty_spans(self):
        with CleaningGateway(workers=1, stream_workers=1, tracing=False) as gateway:
            from repro.dataframe.io import read_csv_text

            table = read_csv_text(DIRTY_CSV, name="quiet", infer_types=False)
            job = gateway.service.submit(table)
            job.wait(60)
            doc = gateway.job_trace(job.job_id)
        assert doc["trace_id"] is None
        assert doc["spans"] == []


class TestMetricsExposition:
    def test_json_remains_the_default(self, server):
        _, headers, doc = _get(server, "/metrics")
        assert headers["Content-Type"].startswith("application/json")
        assert "generated_at" in doc
        assert doc["generated_at"] == pytest.approx(time.time(), abs=60)
        assert set(doc["gateway"]) == {"requests", "rejected_saturated", "rejected_backpressure"}

    def test_prometheus_via_query_parameter(self, server):
        _submit_and_wait(server, name="prom-sample")
        status, headers, text = _get(server, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_gateway_events_total counter" in text
        assert 'repro_service_jobs_total{status="succeeded"}' in text
        assert "repro_service_job_run_seconds_bucket" in text
        assert "repro_gateway_uptime_seconds" in text
        assert "repro_cache_size" in text
        assert 'repro_cache_requests_total{result="miss"}' in text
        # The process-default registry rides along (LLM + cache counters).
        assert "repro_llm_calls_total" in text

    def test_prometheus_via_accept_header(self, server):
        _, headers, text = _get(server, "/metrics", headers={"Accept": "text/plain"})
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE" in text

    def test_families_appear_once(self, server):
        _, _, text = _get(server, "/metrics?format=prometheus")
        type_lines = [line for line in text.splitlines() if line.startswith("# TYPE ")]
        assert len(type_lines) == len(set(type_lines))


class TestHealthz:
    def test_reports_queue_saturation(self, server):
        _, _, doc = _get(server, "/healthz")
        assert doc["status"] == "ok"
        queue = doc["queue"]
        assert queue["max_pending_jobs"] == 64
        assert 0.0 <= queue["saturation"] <= 1.0
        assert queue["pending_jobs"] >= 0

    def test_unbounded_admission_reports_zero_saturation(self):
        gateway = CleaningGateway(workers=1, stream_workers=1, max_pending_jobs=None)
        doc = gateway.healthz()
        assert doc["queue"]["max_pending_jobs"] is None
        assert doc["queue"]["saturation"] == 0.0
