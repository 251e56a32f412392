"""``render_service_summary`` against the list aggregation it replaced.

The service used to keep a second copy of every job's outcome and read a
summary back from it.  The summary is now computed from the caller's own
jobs; ``_legacy_snapshot`` is that older aggregation, kept as the oracle.
Seeded random job streams (succeeded, failed, cancelled and still pending
jobs) go through both, and every number the summary prints must equal the
oracle's at the printed precision.
"""

import random
import re
from typing import Dict, List

import pytest

from repro.dataframe import Table
from repro.obs.metrics import percentile
from repro.service.jobs import CleaningJob, JobResult, JobStatus, render_service_summary

_TABLE = Table.from_dict("t", {"a": ["1"]})


def _legacy_snapshot(jobs: List[CleaningJob], cache_stats=None) -> Dict[str, float]:
    """The pre-registry aggregation; wall = last finish - first submission."""
    stats: Dict[str, float] = dict.fromkeys(
        [
            "jobs_succeeded", "jobs_failed", "jobs_cancelled", "rows_cleaned",
            "cells_repaired", "rows_removed", "llm_calls", "wall_seconds",
            "run_seconds_total", "run_seconds_avg", "run_seconds_p50",
            "run_seconds_max", "wait_seconds_avg", "cache_hits", "cache_misses",
            "cache_hit_rate", "cache_size",
        ],
        0,
    )
    stats["jobs_submitted"] = len(jobs)
    run_times: List[float] = []
    wait_times: List[float] = []
    for result in (job.result for job in jobs if job.result is not None):
        if result.status is JobStatus.SUCCEEDED:
            stats["jobs_succeeded"] += 1
            stats["rows_cleaned"] += result.rows
            stats["cells_repaired"] += result.cell_repairs
            stats["rows_removed"] += result.removed_rows
            stats["llm_calls"] += result.llm_calls
            run_times.append(result.run_seconds)
            wait_times.append(result.wait_seconds)
        elif result.status is JobStatus.FAILED:
            stats["jobs_failed"] += 1
        elif result.status is JobStatus.CANCELLED:
            stats["jobs_cancelled"] += 1
    if run_times:
        ordered = sorted(run_times)
        stats["run_seconds_total"] = sum(run_times)
        stats["run_seconds_avg"] = stats["run_seconds_total"] / len(run_times)
        stats["run_seconds_p50"] = percentile(ordered, 0.5)
        stats["run_seconds_max"] = ordered[-1]
    if wait_times:
        stats["wait_seconds_avg"] = sum(wait_times) / len(wait_times)
    if cache_stats:
        stats["cache_hits"] = int(cache_stats.get("hits", 0))
        stats["cache_misses"] = int(cache_stats.get("misses", 0))
        stats["cache_hit_rate"] = float(cache_stats.get("hit_rate", 0.0))
        stats["cache_size"] = int(cache_stats.get("size", 0))
    finished = [job.finished_at for job in jobs if job.finished_at is not None]
    if finished:
        stats["wall_seconds"] = max(finished) - min(job.submitted_at for job in jobs)
    wall = stats["wall_seconds"]
    stats["jobs_per_second"] = stats["jobs_succeeded"] / wall if wall > 0 else 0.0
    stats["rows_per_second"] = stats["rows_cleaned"] / wall if wall > 0 else 0.0
    stats["speedup"] = stats["run_seconds_total"] / wall if wall > 0 else 0.0
    return stats


def _random_jobs(seed: int, count: int) -> List[CleaningJob]:
    rng = random.Random(seed)
    jobs = []
    clock = 100.0
    for index in range(count):
        clock += rng.uniform(0.0, 0.5)
        job = CleaningJob(table=_TABLE, name=f"t{index}", submitted_at=clock)
        status = rng.choices(
            [JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED, None],
            weights=[8, 1, 1, 1],
        )[0]
        if status is not None:  # None: still pending, counted as submitted only
            wait, run = rng.uniform(0.0, 2.0), rng.uniform(0.001, 10.0)
            if status is JobStatus.CANCELLED:
                run = 0.0
            job.status = status
            job.finished_at = clock + wait + run
            job.result = JobResult(
                job_id=job.job_id,
                table_name=job.name,
                status=status,
                rows=rng.randrange(0, 5000),
                columns=rng.randrange(1, 20),
                llm_calls=rng.randrange(0, 40),
                cell_repairs=rng.randrange(0, 200),
                removed_rows=rng.randrange(0, 50),
                wait_seconds=wait,
                run_seconds=run,
            )
        jobs.append(job)
    return jobs


#: (oracle key, pattern capturing the printed number, printed format).
_PRINTED = [
    ("jobs_submitted", r"jobs\s+: (\d+) submitted", "d"),
    ("jobs_succeeded", r"(\d+) succeeded", "d"),
    ("jobs_failed", r"(\d+) failed", "d"),
    ("jobs_cancelled", r"(\d+) cancelled", "d"),
    ("rows_cleaned", r"(\d+) rows cleaned", "d"),
    ("cells_repaired", r"(\d+) cells repaired", "d"),
    ("rows_removed", r"(\d+) rows removed", "d"),
    ("llm_calls", r"llm\s+: (\d+) calls", "d"),
    ("jobs_per_second", r"([\d.]+) jobs/s", ".2f"),
    ("rows_per_second", r"([\d.]+) rows/s", ".0f"),
    ("wall_seconds", r"over ([\d.]+)s wall time", ".2f"),
    ("run_seconds_avg", r"avg ([\d.]+)s, p50", ".2f"),
    ("run_seconds_p50", r"p50 ([\d.]+)s", ".2f"),
    ("run_seconds_max", r"max ([\d.]+)s per job", ".2f"),
    ("wait_seconds_avg", r"avg queue wait ([\d.]+)s", ".2f"),
]
_CACHE = {"hits": 11, "misses": 4, "hit_rate": 11 / 15, "size": 15}


def _assert_matches_oracle(text: str, oracle: Dict[str, float]) -> None:
    for key, pattern, spec in _PRINTED:
        match = re.search(pattern, text)
        assert match is not None, (key, text)
        assert match.group(1) == format(oracle[key], spec), key


@pytest.mark.parametrize("seed,count", [(0, 1), (1, 7), (2, 50), (3, 200), (4, 1000)])
def test_summary_matches_legacy_aggregation(seed, count):
    jobs = _random_jobs(seed, count)
    text = render_service_summary(jobs, _CACHE)
    oracle = _legacy_snapshot(jobs, _CACHE)
    _assert_matches_oracle(text, oracle)
    assert "cache 11 hits / 4 misses (73% hit rate, 15 entries)" in text
    if oracle["jobs_succeeded"] > 1 and oracle["wall_seconds"] > 0:
        assert f"concurrency : {oracle['speedup']:.2f}x speedup" in text
    else:
        assert "concurrency" not in text


@pytest.mark.parametrize("cache_stats", [{}, {"hits": 0, "misses": 0, "size": 0}])
def test_no_jobs_prints_zeros_and_no_cache_clause(cache_stats: dict):
    text = render_service_summary([], cache_stats)
    _assert_matches_oracle(text, _legacy_snapshot([], cache_stats))
    assert "cache" not in text and "concurrency" not in text


def test_p50_is_interpolated_not_nearest_rank():
    jobs = _random_jobs(5, 2)
    for job, run_seconds in zip(jobs, (1.0, 2.0)):
        job.result = JobResult(
            job_id=job.job_id, table_name=job.name, status=JobStatus.SUCCEEDED,
            run_seconds=run_seconds,
        )
        job.finished_at = job.submitted_at + run_seconds
    # A round()-based nearest rank picks 1.00 or 2.00 here; interpolation says 1.50.
    assert "p50 1.50s" in render_service_summary(jobs, {})
