"""Thread-safety, atomic persistence and observability of the prompt cache."""

from __future__ import annotations

import json
import threading

import pytest

from repro.llm import CachingLLMClient, PromptCacheStore, SimulatedSemanticLLM, prompts


class TestPromptCacheStore:
    def test_get_put_and_stats(self):
        store = PromptCacheStore()
        assert store.get("k1") is None
        store.put("k1", "v1")
        assert store.get("k1") == "v1"
        stats = store.stats()
        assert stats == {"hits": 1, "misses": 1, "hit_rate": 0.5, "size": 1}
        assert "k1" in store and len(store) == 1

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PromptCacheStore(path)
        store.put("a", "1")
        store.put("b", "2")
        reloaded = PromptCacheStore(path)
        assert reloaded.get("a") == "1" and reloaded.get("b") == "2"

    def test_flush_every_batches_writes(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PromptCacheStore(path, flush_every=3)
        store.put("a", "1")
        store.put("b", "2")
        assert not path.exists()  # below the batch threshold, nothing on disk
        store.put("c", "3")
        assert json.loads(path.read_text()) == {"a": "1", "b": "2", "c": "3"}
        store.put("d", "4")
        assert "d" not in json.loads(path.read_text())
        store.flush()
        assert json.loads(path.read_text())["d"] == "4"

    def test_no_temp_file_debris(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PromptCacheStore(path)
        for i in range(10):
            store.put(f"k{i}", "v")
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_file_always_valid_json_under_concurrent_writes(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PromptCacheStore(path, flush_every=1)
        errors = []

        def writer(tag):
            try:
                for i in range(50):
                    store.put(f"{tag}-{i}", "x" * 100)
                    if path.exists():
                        json.loads(path.read_text())  # must never observe a torn file
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(json.loads(path.read_text())) == 8 * 50

    def test_thread_hammer_counters_stay_coherent(self):
        store = PromptCacheStore()
        per_thread = 200
        threads_n = 8

        def hammer(tag):
            for i in range(per_thread):
                key = f"shared-{i % 20}"
                if store.get(key) is None:
                    store.put(key, f"value-{i % 20}")

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = store.stats()
        assert stats["hits"] + stats["misses"] == threads_n * per_thread
        assert stats["size"] == 20

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError):
            PromptCacheStore(flush_every=0)


class TestCachingLLMClient:
    def test_stats_dict(self):
        llm = CachingLLMClient(SimulatedSemanticLLM())
        prompt = prompts.dmv_detection("c", [("N/A", 1)])
        llm.complete(prompt)
        llm.complete(prompt)
        assert llm.store.stats() == {"hits": 1, "misses": 1, "hit_rate": 0.5, "size": 1}

    def test_shared_store_across_clients(self):
        store = PromptCacheStore()
        first = CachingLLMClient(SimulatedSemanticLLM(), store=store)
        second = CachingLLMClient(SimulatedSemanticLLM(), store=store)
        prompt = prompts.dmv_detection("c", [("N/A", 1)])
        text_first = first.complete(prompt).text
        text_second = second.complete(prompt).text  # hit: reuses first's response
        assert text_first == text_second
        assert store.stats()["misses"] == 1 and store.stats()["hits"] == 1
        # The second client never had to invoke its inner model.
        assert second.inner.call_count == 0

    def test_concurrent_clients_agree_and_do_not_corrupt(self):
        store = PromptCacheStore()
        prompt_set = [prompts.dmv_detection(f"col{i}", [("N/A", 1), ("--", 2)]) for i in range(5)]
        responses = {}
        errors = []
        lock = threading.Lock()

        def worker():
            try:
                client = CachingLLMClient(SimulatedSemanticLLM(), store=store)
                for prompt in prompt_set * 10:
                    text = client.complete(prompt).text
                    with lock:
                        previous = responses.setdefault(prompt, text)
                    assert previous == text
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats()["size"] == len(prompt_set)

    def test_flush_persists_shared_store(self, tmp_path):
        path = tmp_path / "cache.json"
        llm = CachingLLMClient(SimulatedSemanticLLM(), store=PromptCacheStore(path, flush_every=100))
        llm.complete(prompts.dmv_detection("c", [("N/A", 1)]))
        assert not path.exists()
        llm.store.flush()
        assert len(json.loads(path.read_text())) == 1
