"""End-to-end benchmark of the cleaner, with an outside-in per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clean-hospital --seed 1 --seconds 25 --trace 0

``--trace 0`` times every operation untouched and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and prints
the per-layer metrics (span trees go to ``perfbench/traces/<workload>.jsonl``).
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

Why each workload exists, which layer metric should move which end-to-end
metric, and the figures measured so far are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "clean_s": "s",
    "f1": "ratio",
    "prime_s": "s",
    "batch_ms_p50": "ms",
    "batch_ms_p99": "ms",
    "rows_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (``--trace 1``); times and counts are per operation.
PER_LAYER = {
    "profiling.busy_s": "s",
    "profiling.table_profiles": "count",
    "profiling.column_profiles": "count",
    "profiling.column_useful_ratio": "ratio",
    "profiling.fd_busy_s": "s",
    "profiling.fd_runs": "count",
    "profiling.incremental_busy_s": "s",
    "llm.busy_s": "s",
    "llm.calls": "count",
    "llm.tokens": "count",
    "llm.cache_hit_ratio": "ratio",
    "llm.failed": "count",
    "sql.busy_s": "s",
    "sql.statements": "count",
    "sql.rows_out": "count",
    "dataframe.busy_s": "s",
    "dataframe.columns_built": "count",
    "lineage.busy_s": "s",
    "lineage.records": "count",
    "core.diff_busy_s": "s",
    "core.replay_busy_s": "s",
    "core.self_s": "s",
    "stream.drift_busy_s": "s",
    "stream.state_busy_s": "s",
    "stream.retractions": "count",
    "stream.replans": "count",
    "stream.batch_ms_growth": "ratio",
    "service.run_s": "s",
    "service.wait_s": "s",
    "server.overhead_s": "s",
    "server.self_s": "s",
    "server.requests_per_job": "count",
    "server.poll_useful_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_ratio": "ratio",
    "bench.fail_ratio": "ratio",
}

#: The traced split must add up to the traced wall time within this share.
MAX_UNATTRIBUTED = 0.05


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def growth(values: List[float]) -> float:
    """Median of the last quarter of ``values`` over the median of the first."""
    quarter = max(1, len(values) // 4)
    first = median(values[:quarter])
    return median(values[-quarter:]) / first if first else 0.0


def end_to_end(run) -> Dict[str, float]:
    busy = sum(run.batch_s)
    return {
        "setup_s": median(run.setup_s),
        "clean_s": median(run.clean_s),
        "f1": run.f1,
        "prime_s": median(run.prime_s),
        "batch_ms_p50": median(run.batch_s) * 1000,
        "batch_ms_p99": percentile(run.batch_s, 99) * 1000,
        "rows_per_s": run.batch_rows / busy if busy else 0.0,
        "job_s_p50": median(run.job_s),
        "job_s_p90": percentile(run.job_s, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run) -> Dict[str, float]:
    ops = len(run.traced_s) or 1
    layer = run.layer_s
    counts = run.instrument.counts

    def busy(*buckets: str) -> float:
        return sum(layer.get(b, 0.0) for b in buckets) / ops

    traced_wall = sum(run.traced_s)
    lookups = counts["llm.cache_lookups"]
    profiles = counts["profiling.column_profiles"]
    untraced = median(run.untraced_s)
    metrics = {
        "profiling.busy_s": busy("profiling", "profiling.fd", "profiling.incremental"),
        "profiling.table_profiles": counts["profiling.table_profiles"] / ops,
        "profiling.column_profiles": profiles / ops,
        "profiling.column_useful_ratio": counts["profiling.distinct_columns"] / profiles if profiles else 0.0,
        "profiling.fd_busy_s": busy("profiling.fd"),
        "profiling.fd_runs": counts["profiling.fd_runs"] / ops,
        "profiling.incremental_busy_s": busy("profiling.incremental"),
        "llm.busy_s": busy("llm"),
        "llm.calls": counts["llm.calls"] / ops,
        "llm.tokens": counts["llm.tokens"] / ops,
        "llm.cache_hit_ratio": counts["llm.cache_hits"] / lookups if lookups else 0.0,
        "llm.failed": float(run.instrument.failed_llm_calls),
        "sql.busy_s": busy("sql"),
        "sql.statements": counts["sql.statements"] / ops,
        "sql.rows_out": counts["sql.rows_out"] / ops,
        "dataframe.busy_s": busy("dataframe"),
        "dataframe.columns_built": counts["dataframe.columns_built"] / ops,
        "lineage.busy_s": busy("lineage"),
        "lineage.records": counts["lineage.records"] / ops,
        "core.diff_busy_s": busy("core.diff"),
        "core.replay_busy_s": busy("core.replay"),
        "core.self_s": busy("core"),
        "stream.drift_busy_s": busy("stream.drift"),
        "stream.state_busy_s": busy("stream.state"),
        "stream.batch_ms_growth": growth(run.untraced_s),
        "server.self_s": busy("server"),
        "bench.trace_overhead_ratio": median(run.traced_s) / untraced if untraced else 0.0,
        "bench.unattributed_ratio": (
            abs(traced_wall - sum(layer.values())) / traced_wall if traced_wall else 0.0
        ),
        "bench.fail_ratio": run.failed / run.attempted if run.attempted else 0.0,
    }
    for name in PER_LAYER:
        metrics.setdefault(name, run.extra.get(name, 0.0))
    return metrics


def layer_summary(run) -> List[Tuple[str, float]]:
    """(layer, share of traced wall time), largest first."""
    total = sum(run.layer_s.values()) or 1.0
    shares: Dict[str, float] = {}
    for bucket, seconds in run.layer_s.items():
        shares[bucket] = shares.get(bucket, 0.0) + seconds / total
    return sorted(shares.items(), key=lambda item: -item[1])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' runs every workload in seconds (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if str(ROOT) not in sys.path:
        # Appended, not prepended: the checkout root also holds setup.py,
        # tests/ and benchmarks/, which must not shadow anything.
        sys.path.append(str(ROOT))
    from perfbench.workloads import SIZES, WORKLOADS, Arm

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    span_log = ROOT / "perfbench" / "traces" / f"{args.workload}.jsonl" if trace else None
    arm = Arm(trace, span_log)
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, arm, SIZES[args.size])
    finally:
        arm.clock.stop()

    if trace:
        metrics = per_layer(run)
        run.check(metrics["bench.unattributed_ratio"] <= MAX_UNATTRIBUTED)
        metrics["bench.fail_ratio"] = run.failed / run.attempted
        units = PER_LAYER
        for bucket, share in layer_summary(run):
            print(f"layer {bucket:<22} {share:7.1%}", file=sys.stderr)
    else:
        metrics = end_to_end(run)
        units = END_TO_END
    clock = arm.clock
    print(
        f"wall {clock.raw_s:.3f} s timed = {clock.scaled_s:.3f} reference s "
        f"(machine at {clock.scaled_s / clock.raw_s:.2f}x reference speed)",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    # One CPU for the whole process, set before any thread starts: the speed
    # probe then measures the CPU the work runs on (the two CPUs of a shared
    # machine slow down independently).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main(sys.argv[1:]))
