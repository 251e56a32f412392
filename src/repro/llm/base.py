"""Core abstractions for LLM access."""

from __future__ import annotations

import abc
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import record_llm_call

#: Depth of nested ``complete`` calls on this thread: a caching client
#: delegating to its inner model is *one* logical LLM call, and span/metric
#: accounting must agree with the outer client's ``call_count``.
_active_calls = threading.local()


@dataclass
class LLMUsage:
    """Token accounting for a single call (estimated for simulated models)."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class LLMResponse:
    """The text completion plus usage metadata returned by a client."""

    text: str
    model: str
    usage: LLMUsage = field(default_factory=LLMUsage)
    latency_seconds: float = 0.0


@dataclass
class CallRecord:
    """One prompt/response pair, kept for interpretability and debugging.

    ``cache_key`` is the stable prompt digest (see :func:`prompt_cache_key`)
    and ``cache_hit`` records whether a caching wrapper answered from its
    store (``None`` when no cache sits in front of the call) — together they
    are the LLM provenance the lineage layer attaches to every repaired cell.
    """

    prompt: str
    response: str
    model: str
    purpose: str = ""
    latency_seconds: float = 0.0
    cache_key: str = ""
    cache_hit: Optional[bool] = None


def prompt_cache_key(prompt: str, system: Optional[str] = None, namespace: str = "") -> str:
    """Stable cache key for a (prompt, system) pair.

    ``namespace`` partitions one shared store into independent key spaces.
    The experiment matrix namespaces its shared cache per repair unit
    (dataset/seed/scale/system): the simulated LLM is *stateful* within one
    cleaning run (detection prompts record value counts that later cleaning
    prompts consult), so a coincidentally identical prompt from a different
    run may legitimately deserve a different response — an un-namespaced
    cross-run hit would make results depend on execution order.  An empty
    namespace (the default) produces the same keys as before namespacing
    existed.
    """
    digest = hashlib.sha256()
    if namespace:
        digest.update(namespace.encode("utf-8"))
        digest.update(b"\0\0")
    digest.update(prompt.encode("utf-8"))
    if system:
        digest.update(b"\0")
        digest.update(system.encode("utf-8"))
    return digest.hexdigest()


def estimate_tokens(text: str) -> int:
    """Rough token estimate (~4 characters per token) used for usage accounting."""
    return max(1, len(text) // 4)


class LLMClient(abc.ABC):
    """Abstract interface every model client implements.

    The pipeline only ever calls :meth:`complete`; it never inspects the
    client, so swapping the simulated model for a hosted model is a one-line
    configuration change.
    """

    model_name: str = "unknown"

    def __init__(self) -> None:
        self.history: List[CallRecord] = []
        # Per-instance, per-thread scratch slot a caching subclass uses to
        # report whether its _complete was answered from the cache; complete()
        # drains it into the CallRecord it appends.
        self._cache_flag = threading.local()

    @abc.abstractmethod
    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        """Produce the completion text for a prompt."""

    def _note_cache_result(self, hit: bool) -> None:
        """Caching subclasses call this inside ``_complete`` to flag hit/miss."""
        if not hasattr(self, "_cache_flag"):
            self._cache_flag = threading.local()
        self._cache_flag.hit = hit

    def _take_cache_flag(self) -> Optional[bool]:
        flag = getattr(self, "_cache_flag", None)
        hit = getattr(flag, "hit", None)
        if flag is not None:
            flag.hit = None
        return hit

    def complete(self, prompt: str, system: Optional[str] = None, purpose: str = "") -> LLMResponse:
        """Run one completion and record it in :attr:`history`."""
        depth = getattr(_active_calls, "depth", 0)
        _active_calls.depth = depth + 1
        start = time.perf_counter()
        try:
            text = self._complete(prompt, system=system)
        finally:
            _active_calls.depth = depth
        elapsed = time.perf_counter() - start
        if depth == 0:
            record_llm_call(purpose, elapsed)
        self.history.append(
            CallRecord(
                prompt=prompt,
                response=text,
                model=self.model_name,
                purpose=purpose,
                latency_seconds=elapsed,
                cache_key=prompt_cache_key(prompt, system, namespace=getattr(self, "namespace", "")),
                cache_hit=self._take_cache_flag(),
            )
        )
        usage = LLMUsage(prompt_tokens=estimate_tokens(prompt), completion_tokens=estimate_tokens(text))
        return LLMResponse(text=text, model=self.model_name, usage=usage, latency_seconds=elapsed)

    # -- telemetry ---------------------------------------------------------
    @property
    def call_count(self) -> int:
        return len(self.history)

    def calls_for(self, purpose: str) -> List[CallRecord]:
        return [c for c in self.history if c.purpose == purpose]
