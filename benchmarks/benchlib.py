"""Shared harness for the standalone ``bench_*.py`` scripts.

Unlike the pytest-benchmark modules (``bench_table1.py`` etc.), the scripts
built on this helper are plain CLIs: they time a *baseline* implementation
against an *optimised* one on synthetic inputs and write a ``BENCH_*.json``
report in the schema documented in ``docs/benchmarks.md``.  The committed
``BENCH_*.json`` files at the repo root are produced by these scripts.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional

SCHEMA_VERSION = 1


def measure(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def case_result(
    name: str,
    params: Dict[str, Any],
    baseline_seconds: float,
    optimised_seconds: float,
    output_rows: Optional[int] = None,
    parity: Optional[bool] = None,
) -> Dict[str, Any]:
    """One entry of the report's ``cases`` array."""
    speedup = baseline_seconds / optimised_seconds if optimised_seconds > 0 else float("inf")
    entry: Dict[str, Any] = {
        "name": name,
        "params": params,
        "baseline_seconds": round(baseline_seconds, 6),
        "optimised_seconds": round(optimised_seconds, 6),
        "speedup": round(speedup, 2),
    }
    if output_rows is not None:
        entry["output_rows"] = output_rows
    if parity is not None:
        entry["parity"] = parity
    return entry


def write_report(
    out_path: str, benchmark: str, config: Dict[str, Any], cases: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Assemble and write the ``BENCH_*.json`` document; returns it."""
    report = {
        "benchmark": benchmark,
        "schema_version": SCHEMA_VERSION,
        "created_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": config,
        "cases": cases,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def print_cases(report: Dict[str, Any]) -> None:
    print(f"# {report['benchmark']} benchmark — {report['created_at']}", file=sys.stderr)
    for case in report["cases"]:
        parity = "" if case.get("parity", True) else "  PARITY FAILURE"
        print(
            f"{case['name']:<40} baseline {case['baseline_seconds']:>10.4f}s   "
            f"optimised {case['optimised_seconds']:>10.4f}s   "
            f"speedup {case['speedup']:>8.2f}x{parity}",
            file=sys.stderr,
        )
