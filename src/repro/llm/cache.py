"""Prompt-level response caching.

LLM calls dominate the cost and latency of the cleaning pipeline, and the
same prompt (same column profile) recurs across runs, re-runs with human
feedback, and benchmark repetitions.  Two layers live here:

* :class:`PromptCacheStore` — a thread-safe prompt → response store with
  atomic JSON persistence.  One store can back many clients at once, which
  is how :class:`repro.service.CleaningService` amortises LLM calls across
  concurrently running jobs.
* :class:`CachingLLMClient` — wraps any :class:`~repro.llm.base.LLMClient`
  with an exact-match prompt cache backed by a store (its own by default).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.dataframe.io import atomic_write_text
from repro.llm.base import LLMClient, prompt_cache_key
from repro.obs import record_cache

__all__ = [
    "CachingLLMClient",
    "PromptCacheStore",
    "prompt_cache_key",  # canonical home is repro.llm.base; re-exported for compat
]


class PromptCacheStore:
    """Thread-safe prompt → response store with atomic JSON persistence.

    Writes go through a temporary file followed by :func:`os.replace`, so an
    interrupted process can never leave a truncated cache file behind.  With
    ``flush_every=n`` the store batches persistence: it rewrites the file only
    after every ``n``-th new entry (call :meth:`flush` to force a write, e.g.
    at shutdown).  All operations take an internal :class:`threading.RLock`,
    so one store may safely serve many worker threads.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        flush_every: int = 1,
    ):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path) if path is not None else None
        self.flush_every = flush_every
        self._lock = threading.RLock()
        self._write_lock = threading.Lock()
        self._cache: Dict[str, str] = {}
        self._unflushed = 0
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._cache = json.loads(self.path.read_text(encoding="utf-8"))

    # -- core operations -------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        """Look up a response, updating hit/miss counters."""
        with self._lock:
            if key in self._cache:
                self.hits += 1
                cached: Optional[str] = self._cache[key]
            else:
                self.misses += 1
                cached = None
        # Span/registry accounting happens outside the store lock.
        record_cache(hit=cached is not None)
        return cached

    def put(self, key: str, text: str) -> None:
        """Insert a response; persists when the unflushed batch is full."""
        with self._lock:
            if self._cache.get(key) == text:
                return
            self._cache[key] = text
            self._unflushed += 1
            needs_flush = self.path is not None and self._unflushed >= self.flush_every
        if needs_flush:
            self._persist()

    def peek(self, key: str) -> Optional[str]:
        """Look up a response without touching the hit/miss counters."""
        with self._lock:
            return self._cache.get(key)

    def flush(self) -> None:
        """Force any unflushed entries to disk."""
        with self._lock:
            needs_flush = self.path is not None and self._unflushed > 0
        if needs_flush:
            self._persist()

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._unflushed = 0

    def _persist(self) -> None:
        """Atomic persistence (:func:`~repro.dataframe.io.atomic_write_text`).

        Serialisation and disk I/O happen outside the store lock so workers'
        ``get``/``put`` calls never stall on a flush; ``_write_lock``
        serialises writers, and taking the snapshot inside it keeps the
        on-disk file monotonic (a later flush can never be overwritten by an
        earlier one's stale snapshot).
        """
        with self._write_lock:
            with self._lock:
                snapshot = dict(self._cache)
                self._unflushed = 0
            atomic_write_text(self.path, json.dumps(snapshot, indent=0))

    # -- observability ---------------------------------------------------------
    def stats(self) -> Dict[str, Union[int, float]]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "size": len(self._cache),
            }

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._cache


class CachingLLMClient(LLMClient):
    """Wraps another :class:`LLMClient` with an exact-match prompt cache.

    By default each client owns a private :class:`PromptCacheStore`; pass
    ``store=`` to share one store (and its hit/miss accounting) across many
    clients — the pattern the concurrent cleaning service uses, where every
    job gets its own inner model but all jobs reuse each other's responses.
    """

    def __init__(self, inner: LLMClient, store: Optional[PromptCacheStore] = None):
        super().__init__()
        self.inner = inner
        self.model_name = f"cached({inner.model_name})"
        # All synchronisation lives in the store's RLock; the client itself
        # holds no mutable cache state of its own.
        self.store = store if store is not None else PromptCacheStore()

    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        key = prompt_cache_key(prompt, system)
        cached = self.store.get(key)
        self._note_cache_result(cached is not None)
        if cached is not None:
            return cached
        # The inner call happens outside the store lock so concurrent misses on
        # different prompts overlap; two simultaneous misses on the *same*
        # prompt both compute, and the idempotent put keeps the store coherent.
        text = self.inner.complete(prompt, system=system).text
        self.store.put(key, text)
        return text

    # -- observability ---------------------------------------------------------
    @property
    def hits(self) -> int:
        return self.store.stats()["hits"]

    @property
    def misses(self) -> int:
        return self.store.stats()["misses"]

    @property
    def hit_rate(self) -> float:
        return self.store.hit_rate

    def stats(self) -> Dict[str, Union[int, float]]:
        """Hit/miss/size counters of the backing store."""
        return self.store.stats()

    def flush(self) -> None:
        self.store.flush()
