"""Service throughput: sequential cleaning vs the 4-worker service.

Real deployments are I/O-bound on the hosted LLM, so the simulated model runs
with a small per-call latency (``REPRO_BENCH_LLM_LATENCY`` seconds, released
with the GIL during the sleep) — the regime where the worker pool overlaps
jobs' LLM waits.  The benchmark cleans every registry dataset twice — once
sequentially with :class:`CocoonCleaner`, once through a 4-worker
:class:`CleaningService` — and reports both wall times plus the speedup in
``extra_info``, so ``pytest benchmarks/bench_service_throughput.py
--benchmark-only --benchmark-json=...`` yields machine-readable results
consistent with the other bench modules.
"""

from __future__ import annotations

import os
import time

from repro import CleaningService, CocoonCleaner, dataset_names, load_dataset
from repro.llm import SimulatedSemanticLLM

LLM_LATENCY = float(os.environ.get("REPRO_BENCH_LLM_LATENCY", "0.1"))
WORKERS = int(os.environ.get("REPRO_BENCH_SERVICE_WORKERS", "4"))

# The service overlaps LLM waits, not Python bytecode (the GIL serialises
# that), so this bench runs at half the standard scale: per-call latency then
# dominates per-row CPU, matching the hosted-model regime it models.
SCALE_FACTOR = 0.5


def _llm_factory():
    return SimulatedSemanticLLM(latency_seconds=LLM_LATENCY)


def _load_tables(seed, scale):
    return [load_dataset(name, seed=seed, scale=scale).dirty for name in dataset_names()]


def test_service_throughput_vs_sequential(benchmark, bench_scale, bench_seed):
    tables = _load_tables(bench_seed, bench_scale * SCALE_FACTOR)
    total_rows = sum(table.num_rows for table in tables)

    sequential_start = time.perf_counter()
    sequential_results = [CocoonCleaner(llm=_llm_factory()).clean(table) for table in tables]
    sequential_seconds = time.perf_counter() - sequential_start

    def run_service():
        with CleaningService(workers=WORKERS, llm_factory=_llm_factory) as service:
            results = service.clean_tables(tables)
        return results, service.stats()

    results, stats = benchmark.pedantic(run_service, iterations=1, rounds=1)
    service_seconds = stats.wall_seconds
    speedup = sequential_seconds / service_seconds if service_seconds > 0 else 0.0

    assert all(result.ok for result in results)
    # Concurrency must not change outcomes.
    for sequential, concurrent in zip(sequential_results, results):
        assert concurrent.cleaning_result.cleaned_table == sequential.cleaned_table

    benchmark.extra_info.update(
        {
            "workers": WORKERS,
            "llm_latency_seconds": LLM_LATENCY,
            "datasets": len(tables),
            "total_rows": total_rows,
            "sequential_seconds": round(sequential_seconds, 3),
            "service_seconds": round(service_seconds, 3),
            "speedup": round(speedup, 3),
            "sequential_rows_per_second": round(total_rows / sequential_seconds, 1),
            "service_rows_per_second": round(stats.rows_per_second, 1),
            "cache_hit_rate": round(stats.cache_hit_rate, 3),
            "llm_calls": stats.llm_calls,
        }
    )
    assert speedup >= 1.5, (
        f"4-worker service was only {speedup:.2f}x faster than sequential "
        f"({service_seconds:.2f}s vs {sequential_seconds:.2f}s)"
    )
