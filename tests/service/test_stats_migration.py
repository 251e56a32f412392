"""Differential test: the registry-backed StatsCollector vs its predecessor.

The collector used to aggregate ``JobResult`` objects into plain lists; it is
now a façade over :class:`repro.obs.metrics.MetricsRegistry`.  This test
replays identical job streams through the migrated collector and through an
inline re-implementation of the legacy aggregation, and requires every
``ServiceStats`` field to agree — except ``run_seconds_p50``, where the
legacy ``round``-based nearest-rank was deliberately replaced by linear
interpolation (the old value is asserted against the *new* definition
instead).
"""

import random
from typing import List

import pytest

from repro.obs.metrics import MetricsRegistry, percentile
from repro.service.jobs import JobResult, JobStatus
from repro.service.stats import ServiceStats, StatsCollector


def _legacy_snapshot(submitted: int, results: List[JobResult], cache_stats=None) -> ServiceStats:
    """The pre-migration aggregation, verbatim (minus the wall clock)."""
    stats = ServiceStats(jobs_submitted=submitted)
    run_times: List[float] = []
    wait_times: List[float] = []
    for result in results:
        if result.status is JobStatus.SUCCEEDED:
            stats.jobs_succeeded += 1
            stats.rows_cleaned += result.rows
            stats.cells_repaired += result.cell_repairs
            stats.rows_removed += result.removed_rows
            stats.llm_calls += result.llm_calls
            run_times.append(result.run_seconds)
            wait_times.append(result.wait_seconds)
        elif result.status is JobStatus.FAILED:
            stats.jobs_failed += 1
        elif result.status is JobStatus.CANCELLED:
            stats.jobs_cancelled += 1
    if run_times:
        ordered = sorted(run_times)
        stats.run_seconds_total = sum(run_times)
        stats.run_seconds_avg = stats.run_seconds_total / len(run_times)
        stats.run_seconds_p50 = percentile(ordered, 0.5)
        stats.run_seconds_max = ordered[-1]
    if wait_times:
        stats.wait_seconds_avg = sum(wait_times) / len(wait_times)
    if cache_stats:
        stats.cache_hits = int(cache_stats.get("hits", 0))
        stats.cache_misses = int(cache_stats.get("misses", 0))
        stats.cache_hit_rate = float(cache_stats.get("hit_rate", 0.0))
        stats.cache_size = int(cache_stats.get("size", 0))
    return stats


def _random_results(seed: int, count: int) -> List[JobResult]:
    rng = random.Random(seed)
    results = []
    for job_id in range(1, count + 1):
        status = rng.choices(
            [JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED],
            weights=[8, 1, 1],
        )[0]
        results.append(
            JobResult(
                job_id=job_id,
                table_name=f"t{job_id}",
                status=status,
                rows=rng.randrange(0, 5000),
                columns=rng.randrange(1, 20),
                llm_calls=rng.randrange(0, 40),
                cell_repairs=rng.randrange(0, 200),
                removed_rows=rng.randrange(0, 50),
                wait_seconds=rng.uniform(0.0, 2.0),
                run_seconds=rng.uniform(0.001, 10.0),
            )
        )
    return results


#: to_dict keys whose values must match exactly (everything but the clock).
_COMPARED = [
    key
    for key in ServiceStats().to_dict()
    if key not in ("wall_seconds", "jobs_per_second", "rows_per_second")
]


@pytest.mark.parametrize("seed,count", [(0, 1), (1, 7), (2, 50), (3, 200)])
def test_migrated_collector_matches_legacy_aggregation(seed, count):
    results = _random_results(seed, count)
    cache_stats = {"hits": 11, "misses": 4, "hit_rate": 11 / 15, "size": 15}

    collector = StatsCollector()
    collector.record_submitted(count)
    for result in results:
        collector.record_result(result)
    migrated = collector.snapshot(cache_stats).to_dict()

    legacy = _legacy_snapshot(count, results, cache_stats).to_dict()
    for key in _COMPARED:
        assert migrated[key] == pytest.approx(legacy[key]), key


def test_empty_collector_matches_legacy_zeros():
    migrated = StatsCollector().snapshot().to_dict()
    legacy = _legacy_snapshot(0, []).to_dict()
    for key in _COMPARED:
        assert migrated[key] == legacy[key], key


def test_submissions_in_multiple_batches_accumulate():
    collector = StatsCollector()
    collector.record_submitted(3)
    collector.record_submitted()
    assert collector.snapshot().jobs_submitted == 4


def test_shared_registry_sees_service_metrics():
    registry = MetricsRegistry()
    collector = StatsCollector(registry=registry)
    collector.record_result(_random_results(4, 1)[0])
    assert "repro_service_jobs_total" in registry.names()
    text = registry.render_prometheus()
    assert "repro_service_jobs_total{" in text


def test_p50_is_interpolated_not_nearest_rank():
    collector = StatsCollector()
    for run_seconds in (1.0, 2.0):
        collector.record_result(
            JobResult(
                job_id=1,
                table_name="t",
                status=JobStatus.SUCCEEDED,
                run_seconds=run_seconds,
            )
        )
    # The round()-based legacy picked 1.0 or 2.0 here; interpolation says 1.5.
    assert collector.snapshot().run_seconds_p50 == pytest.approx(1.5)
