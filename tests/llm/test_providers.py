"""Hosted-provider clients against a loopback HTTP server.

Each client is pointed at a stdlib ``http.server`` on 127.0.0.1 (port 0), so
the request it sends (path, headers, JSON body) and the way it reads the
reply are checked without any network or credentials.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.llm.providers import (
    AnthropicClient,
    AzureOpenAIClient,
    OpenAIClient,
    ProviderError,
)


class _Recorder(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server's naming
        length = int(self.headers.get("Content-Length", 0))
        self.server.requests.append(
            {
                "path": self.path,
                "headers": {key.lower(): value for key, value in self.headers.items()},
                "body": json.loads(self.rfile.read(length)),
            }
        )
        status, doc = self.server.reply
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):  # noqa: A002 - silence the test output
        pass


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Recorder)
    httpd.requests = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    thread.join()
    httpd.server_close()


@pytest.fixture
def fake(server):
    """The server with its request log cleared; set ``fake.reply`` per test."""
    server.requests.clear()
    server.reply = (200, {})
    server.base = f"http://127.0.0.1:{server.server_address[1]}"
    return server


OPENAI_REPLY = {"choices": [{"message": {"role": "assistant", "content": "cleaned"}}]}


class TestAnthropic:
    def test_request_and_reply(self, fake):
        fake.reply = (
            200,
            {
                "content": [
                    {"type": "text", "text": "Hel"},
                    {"type": "tool_use", "id": "x", "name": "t", "input": {}},
                    {"type": "text", "text": "lo"},
                ]
            },
        )
        client = AnthropicClient(
            model="claude-test", api_key="ak", base_url=f"{fake.base}/v1/messages",
            max_tokens=7, timeout=10,
        )
        assert client.complete("the prompt", system="the system").text == "Hello"
        (request,) = fake.requests
        assert request["path"] == "/v1/messages"
        assert request["headers"]["x-api-key"] == "ak"
        assert request["headers"]["anthropic-version"] == "2023-06-01"
        assert request["headers"]["content-type"] == "application/json"
        assert request["body"] == {
            "model": "claude-test",
            "max_tokens": 7,
            "messages": [{"role": "user", "content": "the prompt"}],
            "system": "the system",
        }

    def test_no_system_key_without_a_system_prompt(self, fake):
        fake.reply = (200, {"content": [{"type": "text", "text": "ok"}]})
        client = AnthropicClient(api_key="ak", base_url=f"{fake.base}/v1/messages", timeout=10)
        assert client.complete("p").text == "ok"
        assert "system" not in fake.requests[0]["body"]

    def test_http_500_raises_provider_error(self, fake):
        fake.reply = (500, {"error": "overloaded"})
        client = AnthropicClient(api_key="ak", base_url=f"{fake.base}/v1/messages", timeout=10)
        with pytest.raises(ProviderError, match="500"):
            client.complete("p")

    def test_missing_key_raises_before_any_request(self, fake, monkeypatch):
        monkeypatch.delenv("ANTHROPIC_API_KEY", raising=False)
        client = AnthropicClient(base_url=f"{fake.base}/v1/messages", timeout=10)
        with pytest.raises(ProviderError, match="ANTHROPIC_API_KEY"):
            client.complete("p")
        assert fake.requests == []


class TestOpenAI:
    def test_request_and_reply(self, fake):
        fake.reply = (200, OPENAI_REPLY)
        client = OpenAIClient(
            model="gpt-test", api_key="ok-key", base_url=f"{fake.base}/v1/chat/completions",
            max_tokens=9, timeout=10,
        )
        assert client.complete("the prompt", system="the system").text == "cleaned"
        (request,) = fake.requests
        assert request["path"] == "/v1/chat/completions"
        assert request["headers"]["authorization"] == "Bearer ok-key"
        assert request["headers"]["content-type"] == "application/json"
        assert request["body"] == {
            "model": "gpt-test",
            "max_tokens": 9,
            "messages": [
                {"role": "system", "content": "the system"},
                {"role": "user", "content": "the prompt"},
            ],
        }

    def test_http_500_raises_provider_error(self, fake):
        fake.reply = (500, {"error": "boom"})
        client = OpenAIClient(api_key="k", base_url=f"{fake.base}/v1/chat/completions", timeout=10)
        with pytest.raises(ProviderError, match="500"):
            client.complete("p")

    def test_no_choices_raises_provider_error(self, fake):
        fake.reply = (200, {"choices": []})
        client = OpenAIClient(api_key="k", base_url=f"{fake.base}/v1/chat/completions", timeout=10)
        with pytest.raises(ProviderError, match="No completion choices"):
            client.complete("p")


class TestAzureOpenAI:
    def test_request_and_reply(self, fake):
        fake.reply = (200, OPENAI_REPLY)
        client = AzureOpenAIClient(
            deployment="dep-1", endpoint=f"{fake.base}/", api_key="az-key",
            api_version="2024-02-01", max_tokens=5, timeout=10,
        )
        assert client.complete("the prompt").text == "cleaned"
        (request,) = fake.requests
        assert request["path"] == (
            "/openai/deployments/dep-1/chat/completions?api-version=2024-02-01"
        )
        assert request["headers"]["api-key"] == "az-key"
        assert "authorization" not in request["headers"]
        assert request["body"] == {
            "max_tokens": 5,
            "messages": [{"role": "user", "content": "the prompt"}],
        }

    def test_http_500_raises_provider_error(self, fake):
        fake.reply = (500, {"error": "boom"})
        client = AzureOpenAIClient(deployment="d", endpoint=fake.base, api_key="k", timeout=10)
        with pytest.raises(ProviderError, match="500"):
            client.complete("p")

    def test_no_choices_raises_provider_error(self, fake):
        fake.reply = (200, {"id": "x"})
        client = AzureOpenAIClient(deployment="d", endpoint=fake.base, api_key="k", timeout=10)
        with pytest.raises(ProviderError, match="No completion choices"):
            client.complete("p")
