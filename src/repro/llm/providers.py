"""Hosted-model provider clients.

The paper's implementation supports LLM APIs from Anthropic, Azure, Bedrock,
VertexAI and OpenAI.  These thin clients cover Anthropic, OpenAI and Azure
OpenAI using only the standard library (``urllib``), so no SDK is required;
Bedrock and Vertex AI need signed or OAuth2 requests this module does not
make.  The clients need network access and credentials; in the offline
reproduction environment the default client is
:class:`repro.llm.simulated.SimulatedSemanticLLM`.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from typing import Dict, Optional

from repro.llm.base import LLMClient


class ProviderError(RuntimeError):
    """Raised when a hosted provider call fails (network, auth, HTTP error)."""


def _post_json(url: str, headers: Dict[str, str], payload: dict, timeout: float) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, urllib.error.HTTPError, OSError, ValueError) as exc:
        raise ProviderError(f"LLM provider request to {url} failed: {exc}") from exc


class AnthropicClient(LLMClient):
    """Client for the Anthropic Messages API (Claude 3.5, as used in the paper)."""

    def __init__(
        self,
        model: str = "claude-3-5-sonnet-20240620",
        api_key: Optional[str] = None,
        base_url: str = "https://api.anthropic.com/v1/messages",
        max_tokens: int = 2048,
        timeout: float = 60.0,
    ):
        super().__init__()
        self.model_name = model
        self.api_key = api_key or os.environ.get("ANTHROPIC_API_KEY", "")
        self.base_url = base_url
        self.max_tokens = max_tokens
        self.timeout = timeout

    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        if not self.api_key:
            raise ProviderError("ANTHROPIC_API_KEY is not set")
        payload = {
            "model": self.model_name,
            "max_tokens": self.max_tokens,
            "messages": [{"role": "user", "content": prompt}],
        }
        if system:
            payload["system"] = system
        headers = {
            "content-type": "application/json",
            "x-api-key": self.api_key,
            "anthropic-version": "2023-06-01",
        }
        data = _post_json(self.base_url, headers, payload, self.timeout)
        blocks = data.get("content", [])
        return "".join(block.get("text", "") for block in blocks if block.get("type") == "text")


class OpenAIClient(LLMClient):
    """Client for the OpenAI Chat Completions API."""

    def __init__(
        self,
        model: str = "gpt-4o",
        api_key: Optional[str] = None,
        base_url: str = "https://api.openai.com/v1/chat/completions",
        max_tokens: int = 2048,
        timeout: float = 60.0,
    ):
        super().__init__()
        self.model_name = model
        self.api_key = api_key or os.environ.get("OPENAI_API_KEY", "")
        self.base_url = base_url
        self.max_tokens = max_tokens
        self.timeout = timeout

    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        if not self.api_key:
            raise ProviderError("OPENAI_API_KEY is not set")
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": prompt})
        payload = {"model": self.model_name, "max_tokens": self.max_tokens, "messages": messages}
        headers = {"content-type": "application/json", "authorization": f"Bearer {self.api_key}"}
        data = _post_json(self.base_url, headers, payload, self.timeout)
        choices = data.get("choices", [])
        if not choices:
            raise ProviderError(f"No completion choices returned: {data}")
        return choices[0].get("message", {}).get("content", "")


class AzureOpenAIClient(OpenAIClient):
    """Client for Azure-hosted OpenAI deployments."""

    def __init__(
        self,
        deployment: str,
        endpoint: Optional[str] = None,
        api_key: Optional[str] = None,
        api_version: str = "2024-02-01",
        max_tokens: int = 2048,
        timeout: float = 60.0,
    ):
        endpoint = endpoint or os.environ.get("AZURE_OPENAI_ENDPOINT", "")
        api_key = api_key or os.environ.get("AZURE_OPENAI_API_KEY", "")
        base_url = f"{endpoint.rstrip('/')}/openai/deployments/{deployment}/chat/completions?api-version={api_version}"
        super().__init__(model=deployment, api_key=api_key, base_url=base_url, max_tokens=max_tokens, timeout=timeout)

    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        if not self.api_key:
            raise ProviderError("AZURE_OPENAI_API_KEY is not set")
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": prompt})
        payload = {"max_tokens": self.max_tokens, "messages": messages}
        headers = {"content-type": "application/json", "api-key": self.api_key}
        data = _post_json(self.base_url, headers, payload, self.timeout)
        choices = data.get("choices", [])
        if not choices:
            raise ProviderError(f"No completion choices returned: {data}")
        return choices[0].get("message", {}).get("content", "")
