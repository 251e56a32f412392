"""Human-readable renderings of span trees and trace files.

Two consumers:

* :func:`render_flame` — one job's span tree as an indented flame summary
  (wall / CPU / LLM / cache per node), used by ``python -m repro.obs`` and
  handy in tests and notebooks;
* :func:`render_file_summary` — aggregate view over a JSON-lines trace
  file: top span names by cumulative wall time, the LLM/cache breakdown,
  and the slowest SQL plan nodes.

Everything here consumes the *dict* form of spans (``Span.to_dict`` /
validated trace lines), so the CLI works on files from another process.

Traces are not always whole: the tracer's bounded store evicts oldest
traces, so a long-running job can leave *orphan* fragments — spans whose
parent finished, was recorded, and was evicted before the child completed.
:func:`synthesize_root` folds such a fragment list under one synthetic root
so every renderer still draws a single tree, and the renderers themselves
read span fields defensively (an orphan produced by another process or an
older schema renders as zeros, never as a crash).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.2f}ms"


def _wall(doc: Dict[str, Any]) -> float:
    return float(doc.get("wall_seconds") or 0.0)


def _cpu(doc: Dict[str, Any]) -> float:
    return float(doc.get("cpu_seconds") or 0.0)


def synthesize_root(
    fragments: Sequence[Dict[str, Any]], trace_id: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """One renderable tree out of a trace's root fragments.

    A complete trace has exactly one root, which is returned untouched.  A
    trace whose earlier fragments were evicted (or whose root has not
    finished) has several — including orphans that still carry a
    ``parent_id`` pointing at a span that no longer exists.  Those are
    grouped under a synthetic ``(orphaned spans)`` root spanning their
    combined wall time, so flame rendering and summarising keep working on
    partial traces.  Returns ``None`` for an empty fragment list.
    """
    fragments = [f for f in fragments if isinstance(f, dict)]
    if not fragments:
        return None
    if len(fragments) == 1:
        return fragments[0]
    started = [f.get("started_at") for f in fragments if f.get("started_at") is not None]
    if started:
        wall = max(
            f.get("started_at", 0.0) + _wall(f)
            for f in fragments
            if f.get("started_at") is not None
        ) - min(started)
    else:
        wall = sum(_wall(f) for f in fragments)
    orphans = sum(1 for f in fragments if f.get("parent_id") is not None)
    return {
        "name": "(orphaned spans)",
        "trace_id": trace_id if trace_id is not None else fragments[0].get("trace_id"),
        "span_id": None,
        "parent_id": None,
        "started_at": min(started) if started else None,
        "wall_seconds": wall,
        "cpu_seconds": sum(_cpu(f) for f in fragments),
        "status": "ok",
        "attrs": {"synthetic": True, "fragments": len(fragments), "orphans": orphans},
        "counters": {},
        "children": list(fragments),
    }


def _span_counters_note(doc: Dict[str, Any]) -> str:
    notes = []
    counters = doc.get("counters") or {}
    for key, label in (("llm_calls", "llm"), ("cache_hits", "hit"), ("cache_misses", "miss")):
        value = counters.get(key)
        if value:
            notes.append(f"{label}={value}")
    if doc.get("status") == "error":
        notes.append("ERROR")
    return f" [{', '.join(notes)}]" if notes else ""


def _walk(doc: Dict[str, Any], depth: int = 0):
    yield depth, doc
    for child in doc.get("children") or []:
        yield from _walk(child, depth + 1)


def render_flame(doc: Dict[str, Any], max_depth: int = 12) -> str:
    """One span tree as an indented per-node summary (depth-limited)."""
    root_wall = _wall(doc) or 1e-12
    lines = []
    for depth, node in _walk(doc):
        if depth > max_depth:
            continue
        share = _wall(node) / root_wall * 100.0
        attrs = node.get("attrs") or {}
        detail = ""
        interesting = {k: v for k, v in attrs.items() if k in ("target", "table", "rows", "rows_in", "rows_out", "kind", "strategy", "purpose", "job_id", "sequence", "stream", "column")}
        if interesting:
            detail = " (" + ", ".join(f"{k}={v}" for k, v in sorted(interesting.items())) + ")"
        lines.append(
            f"{'  ' * depth}{node.get('name', '(unnamed)')}{detail}  "
            f"{_fmt_seconds(_wall(node))} wall / {_fmt_seconds(_cpu(node))} cpu"
            f"  {share:5.1f}%{_span_counters_note(node)}"
        )
    return "\n".join(lines)


def _plan_node_label(node: Dict[str, Any]) -> str:
    attrs = node.get("attrs") or {}
    bits = [node.get("name", "(unnamed)")]
    for key in ("table", "kind", "strategy", "function"):
        if key in attrs:
            bits.append(str(attrs[key]))
    rows_in = attrs.get("rows_in")
    rows_out = attrs.get("rows_out", attrs.get("rows"))
    if rows_in is not None and rows_out is not None:
        bits.append(f"rows {rows_in} -> {rows_out}")
    elif rows_out is not None:
        bits.append(f"rows={rows_out}")
    return " ".join(bits)


def summarise_spans(docs: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate statistics over many span trees (the CLI's data model)."""
    by_name: Dict[str, Dict[str, float]] = {}
    llm_by_purpose: Dict[str, int] = {}
    cache = {"hits": 0, "misses": 0}
    sql_nodes: List[Tuple[float, str]] = []
    traces = 0
    total_wall = 0.0
    errors = 0
    for doc in docs:
        traces += 1
        total_wall += _wall(doc)
        for depth, node in _walk(doc):
            name = node.get("name", "(unnamed)")
            entry = by_name.setdefault(
                name, {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0}
            )
            entry["count"] += 1
            entry["wall_seconds"] += _wall(node)
            entry["cpu_seconds"] += _cpu(node)
            if node.get("status") == "error":
                errors += 1
            counters = node.get("counters") or {}
            cache["hits"] += counters.get("cache_hits", 0)
            cache["misses"] += counters.get("cache_misses", 0)
            for key, value in counters.items():
                if key.startswith("llm:"):
                    purpose = key[len("llm:"):]
                    llm_by_purpose[purpose] = llm_by_purpose.get(purpose, 0) + int(value)
            if name.startswith("sql.") and name != "sql.query":
                sql_nodes.append((_wall(node), _plan_node_label(node)))
    llm_total = sum(llm_by_purpose.values())
    requests = cache["hits"] + cache["misses"]
    return {
        "traces": traces,
        "total_wall_seconds": total_wall,
        "errors": errors,
        "by_name": by_name,
        "llm_calls": llm_total,
        "llm_by_purpose": llm_by_purpose,
        "cache": {**cache, "hit_rate": cache["hits"] / requests if requests else 0.0},
        "sql_nodes": sorted(sql_nodes, reverse=True),
    }


def render_file_summary(docs: List[Dict[str, Any]], top: int = 10) -> str:
    """The ``python -m repro.obs`` report over a validated trace file."""
    summary = summarise_spans(docs)
    lines = [
        f"traces      : {summary['traces']} "
        f"({_fmt_seconds(summary['total_wall_seconds'])} total wall, "
        f"{summary['errors']} error spans)",
    ]
    lines.append("")
    lines.append(f"top spans by cumulative wall time (top {top}):")
    ranked = sorted(
        summary["by_name"].items(), key=lambda item: item[1]["wall_seconds"], reverse=True
    )
    for name, entry in ranked[:top]:
        lines.append(
            f"  {name:<32} {_fmt_seconds(entry['wall_seconds']):>10}  "
            f"x{int(entry['count'])}  cpu {_fmt_seconds(entry['cpu_seconds'])}"
        )
    lines.append("")
    cache = summary["cache"]
    lines.append(
        f"llm         : {summary['llm_calls']} calls; cache {cache['hits']} hits / "
        f"{cache['misses']} misses ({cache['hit_rate']:.1%} hit rate)"
    )
    for purpose, count in sorted(summary["llm_by_purpose"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  llm:{purpose:<28} {count}")
    if summary["sql_nodes"]:
        lines.append("")
        lines.append(f"slowest SQL plan nodes (top {top}):")
        for wall, label in summary["sql_nodes"][:top]:
            lines.append(f"  {_fmt_seconds(wall):>10}  {label}")
    return "\n".join(lines)
