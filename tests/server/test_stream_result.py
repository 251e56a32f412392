"""The ``GET /v1/streams/{name}/result`` endpoint: cumulative stream output."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.dataframe.io import read_csv_text, to_csv_text
from repro.llm.simulated import SimulatedSemanticLLM
from repro.server.gateway import CleaningGateway
from repro.server.http import make_server
from repro.stream.engine import StreamingCleaner

BATCH_CSV = (
    "city,population\n"
    "new york,8000000\n"
    "boston,650000\n"
    "N/A,42\n"
)


def _request(base, path, payload=None, method=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    request = urllib.request.Request(base + path, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8")
        return error.code, json.loads(body) if body else {}


@pytest.fixture(scope="module")
def server():
    gateway = CleaningGateway(workers=1, stream_workers=1)
    httpd = make_server(gateway, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.port}"
    httpd.shutdown()
    thread.join()


def _drain(base, name, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, doc = _request(base, f"/v1/streams/{name}")
        assert status == 200
        if doc["pending_batches"] == 0:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"stream {name} did not drain")


def test_result_matches_in_process_stream(server):
    status, _ = _request(server, "/v1/streams/cities/batches", {"csv": BATCH_CSV})
    assert status == 202
    _drain(server, "cities")
    status, doc = _request(server, "/v1/streams/cities/result")
    assert status == 200
    assert doc["stream"] == "cities"
    assert doc["failed"] is False
    assert doc["stats"]["batches"] == 1

    reference = StreamingCleaner(name="cities", llm=SimulatedSemanticLLM())
    reference.process_batch(read_csv_text(BATCH_CSV, name="cities", infer_types=False))
    assert doc["csv"] == to_csv_text(reference.cleaned_table())
    assert doc["rows"] == reference.cleaned_table().num_rows


def test_unknown_stream_result_is_404(server):
    status, doc = _request(server, "/v1/streams/nope/result")
    assert status == 404


def test_result_is_read_only(server):
    status, doc = _request(server, "/v1/streams/cities/result", {"x": 1}, method="POST")
    assert status == 405


def test_pending_batches_are_409():
    gateway = CleaningGateway(workers=1, stream_workers=1)
    try:
        gateway.submit_stream_batch("slow", {"csv": BATCH_CSV})
        # Synchronously: the batch may or may not have been picked up yet;
        # the gateway must refuse only while batches are actually pending.
        stream = gateway.streams.stream("slow")
        if stream.pending_batches:
            from repro.server.gateway import ResultNotReady

            with pytest.raises(ResultNotReady):
                gateway.stream_result("slow")
        deadline = time.time() + 30
        while stream.pending_batches and time.time() < deadline:
            time.sleep(0.05)
        doc = gateway.stream_result("slow")
        assert doc["stats"]["batches"] == 1
    finally:
        gateway.shutdown()
