"""End-to-end HTTP tests: a live threading server on an ephemeral port."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import CocoonCleaner
from repro.dataframe.io import read_csv_text, to_csv_text
from repro.server.gateway import CleaningGateway
from repro.server.http import make_server

DIRTY_CSV = (
    "city,population\n"
    "new york,8000000\n"
    "New York,8000000\n"
    "N/A,42\n"
    "boston,650000\n"
)


def _request(base, path, payload=None, method=None, content_type="application/json"):
    """Return (status, headers, decoded JSON body)."""
    data = None
    headers = {}
    if payload is not None:
        data = payload.encode("utf-8") if isinstance(payload, str) else json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = content_type
    request = urllib.request.Request(base + path, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8")
        return error.code, dict(error.headers), json.loads(body) if body else {}


def _poll_done(base, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, _, doc = _request(base, f"/v1/jobs/{job_id}")
        assert status == 200
        if doc["done"]:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture(scope="module")
def server():
    gateway = CleaningGateway(workers=2, stream_workers=1)
    httpd = make_server(gateway, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.port}"
    httpd.shutdown()
    thread.join()
    httpd.server_close()
    gateway.shutdown(wait=True)


class TestHealthAndRouting:
    def test_healthz(self, server):
        status, _, doc = _request(server, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_unknown_path_is_404(self, server):
        status, _, doc = _request(server, "/v2/nope")
        assert status == 404
        assert "error" in doc

    def test_wrong_method_is_405(self, server):
        status, _, _ = _request(server, "/v1/jobs")
        assert status == 405

    def test_malformed_json_is_400(self, server):
        status, _, doc = _request(server, "/v1/jobs", payload="{not json", method="POST")
        assert status == 400
        assert "invalid JSON" in doc["error"]

    def test_missing_table_is_400(self, server):
        status, _, _ = _request(server, "/v1/jobs", payload={"name": "empty"}, method="POST")
        assert status == 400


class TestJobLifecycle:
    def test_submit_poll_fetch_parity(self, server):
        status, _, submitted = _request(
            server, "/v1/jobs", payload={"csv": DIRTY_CSV, "name": "cities"}, method="POST"
        )
        assert status == 202
        job_id = submitted["job_id"]

        done = _poll_done(server, job_id)
        assert done["status"] == "succeeded"
        assert "service" not in done  # service counts live at /metrics
        status, _, metrics = _request(server, "/metrics")
        assert status == 200 and metrics["jobs"]["succeeded"] >= 1

        status, _, result = _request(server, f"/v1/jobs/{job_id}/result")
        assert status == 200
        expected = CocoonCleaner().clean(
            read_csv_text(DIRTY_CSV, name="cities", infer_types=False)
        )
        assert result["csv"] == to_csv_text(expected.cleaned_table)
        assert result["sql_script"] == expected.sql_script
        assert result["cell_repairs"] == len(expected.repairs)

    def test_raw_csv_body_with_name_query(self, server):
        status, _, submitted = _request(
            server,
            "/v1/jobs?name=raw_cities",
            payload=DIRTY_CSV,
            method="POST",
            content_type="text/csv",
        )
        assert status == 202
        assert submitted["name"] == "raw_cities"
        done = _poll_done(server, submitted["job_id"])
        assert done["status"] == "succeeded"

    def test_unknown_job_is_404(self, server):
        status, _, _ = _request(server, "/v1/jobs/987654321")
        assert status == 404

    def test_result_of_running_job_is_409(self, server):
        # A job with queued-but-unstarted work: submit two on a busy server
        # and immediately ask for the second one's result.
        _request(server, "/v1/jobs", payload={"csv": DIRTY_CSV}, method="POST")
        status, _, second = _request(
            server, "/v1/jobs", payload={"csv": DIRTY_CSV, "name": "tail"}, method="POST"
        )
        assert status == 202
        status, _, doc = _request(server, f"/v1/jobs/{second['job_id']}/result")
        assert status in (200, 409)  # 409 unless the tiny job already finished
        if status == 409:
            assert "still" in doc["error"]
        _poll_done(server, second["job_id"])


class TestStreamsOverHTTP:
    def test_feed_batches_and_read_status(self, server):
        for index in range(2):
            status, _, doc = _request(
                server,
                "/v1/streams/tenant-http/batches",
                payload={"csv": DIRTY_CSV, "name": "tenant-http"},
                method="POST",
            )
            assert status == 202
            assert doc["sequence"] == index
        deadline = time.time() + 60
        while time.time() < deadline:
            status, _, doc = _request(server, "/v1/streams/tenant-http")
            assert status == 200
            if doc["pending_batches"] == 0:
                break
            time.sleep(0.05)
        assert doc["failed"] is False

    def test_unknown_stream_is_404(self, server):
        status, _, _ = _request(server, "/v1/streams/ghost")
        assert status == 404


class TestBackpressureOverHTTP:
    def test_429_with_retry_after(self):
        from repro.llm.simulated import SimulatedSemanticLLM

        gateway = CleaningGateway(
            stream_workers=1,
            max_pending_batches=1,
            llm_factory=lambda: SimulatedSemanticLLM(latency_seconds=0.2),
            retry_after_seconds=2.0,
        )
        httpd = make_server(gateway, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.port}"
        try:
            status, _, _ = _request(
                base,
                "/v1/streams/hot/batches",
                payload={"csv": DIRTY_CSV},
                method="POST",
            )
            assert status == 202
            status, headers, doc = _request(
                base, "/v1/streams/hot/batches", payload={"csv": DIRTY_CSV}, method="POST"
            )
            assert status == 429
            assert headers.get("Retry-After") == "2"
            assert "pending" in doc["error"]
            metrics_status, _, metrics = _request(base, "/metrics")
            assert metrics_status == 200
            assert metrics["gateway"]["rejected_backpressure"] == 1
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()
            gateway.streams.wait_idle()
            gateway.shutdown(wait=True)


class TestKeepAliveBodySync:
    def test_unrouted_post_body_does_not_desync_the_connection(self, server):
        # A POST whose route errors before reading the body (404 here) must
        # not leave the body bytes in the socket for the next request.
        import http.client

        host = server.split("//")[1]
        connection = http.client.HTTPConnection(host, timeout=30)
        try:
            body = json.dumps({"csv": DIRTY_CSV})
            connection.request(
                "POST", "/v2/nope", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # Same connection: the next request must parse cleanly.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


def _raw_exchange(base, request: bytes, timeout: float = 5.0) -> bytes:
    """Send raw bytes, then read until the server closes the connection."""
    host, port = base.split("//")[1].split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestMalformedContentLength:
    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_answers_400_and_closes(self, server, value):
        # Neither header says where the body ends: -1 must not reach
        # rfile.read(-1), which blocks until the client hangs up.
        request = (
            "POST /v1/jobs HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {value}\r\n"
            "\r\n"
            '{"csv": "a\\n1\\n"}'
        ).encode("ascii")
        response = _raw_exchange(server, request)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400", head
        assert "Content-Length" in json.loads(body)["error"]


class TestMetricsOverHTTP:
    def test_metrics_document(self, server):
        status, _, doc = _request(server, "/metrics")
        assert status == 200
        assert doc["gateway"]["requests"] > 0
        assert {"submitted", "succeeded", "pending", "queue_depth"} <= set(doc["jobs"])
        assert {"hits", "misses", "hit_rate", "size"} <= set(doc["cache"])
        assert {"submitted", "succeeded", "failed", "cancelled"} <= set(doc["streams"])
