"""Renderers must survive traces with orphan fragments (evicted parents).

The tracer's bounded store evicts oldest traces; a long job can leave a
child fragment whose parent span was recorded and evicted before the child
finished.  The renderers used to assume every doc is a complete tree —
these tests pin the hardened behaviour: a synthetic root groups the
fragments and partial/foreign docs render as zeros, never as a crash.
"""

from __future__ import annotations

import pytest

from repro.obs.report import (
    render_file_summary,
    render_flame,
    summarise_spans,
    synthesize_root,
)
from repro.obs.trace import Tracer


def orphan_fragments():
    """Drive a real eviction: the parent's trace is pushed out of a
    ``max_traces=1`` store while a cross-thread child is still running."""
    tracer = Tracer(enabled=True, max_traces=1)
    with tracer.span("job.parent") as parent:
        ref = parent.ref()
    assert tracer.has_trace(ref.trace_id)
    # Another trace arrives; the one-slot store evicts the parent's.
    with tracer.span("job.unrelated"):
        pass
    assert not tracer.has_trace(ref.trace_id)
    # The child finishes afterwards, carrying a parent_id that now points
    # at nothing — the orphan fragment.
    with tracer.span("op.child", parent_ref=ref, rows=7):
        pass
    with tracer.span("op.sibling", parent_ref=ref):
        pass
    return tracer.trace_tree(ref.trace_id)


class TestTracerOrphans:
    def test_eviction_produces_orphan_roots(self):
        docs = orphan_fragments()
        assert len(docs) == 2
        assert {doc["name"] for doc in docs} == {"op.child", "op.sibling"}
        # Both still carry the dangling parent_id — trace_tree keeps them
        # as roots instead of dropping or crashing.
        assert all(doc["parent_id"] is not None for doc in docs)


class TestSynthesizeRoot:
    def test_empty_is_none(self):
        assert synthesize_root([]) is None
        assert synthesize_root([None, "junk"]) is None

    def test_single_fragment_untouched(self):
        doc = {"name": "solo", "wall_seconds": 1.0}
        assert synthesize_root([doc]) is doc

    def test_orphans_grouped_under_synthetic_root(self):
        docs = orphan_fragments()
        root = synthesize_root(docs, trace_id="t-1")
        assert root["name"] == "(orphaned spans)"
        assert root["trace_id"] == "t-1"
        assert root["attrs"] == {"synthetic": True, "fragments": 2, "orphans": 2}
        assert root["children"] == docs
        assert root["wall_seconds"] >= max(d["wall_seconds"] for d in docs)
        assert root["parent_id"] is None

    def test_wall_time_spans_the_fragments(self):
        frags = [
            {"name": "a", "started_at": 10.0, "wall_seconds": 2.0},
            {"name": "b", "started_at": 13.0, "wall_seconds": 1.0},
        ]
        root = synthesize_root(frags)
        assert root["started_at"] == 10.0
        assert root["wall_seconds"] == pytest.approx(4.0)  # 10.0 .. 14.0

    def test_fragments_without_timestamps_sum(self):
        frags = [{"name": "a", "wall_seconds": 2.0}, {"name": "b", "wall_seconds": 1.0}]
        assert synthesize_root(frags)["wall_seconds"] == pytest.approx(3.0)


class TestRenderersSurvivePartialDocs:
    # A foreign/older-schema doc: no counters, no children, no timings.
    BARE = {"name": "mystery"}

    def test_flame_renders_orphan_tree(self):
        root = synthesize_root(orphan_fragments())
        text = render_flame(root)
        assert "(orphaned spans)" in text
        assert "op.child" in text and "op.sibling" in text

    def test_flame_handles_bare_doc(self):
        text = render_flame(self.BARE)
        assert "mystery" in text and "0.00ms" in text

    def test_flame_handles_missing_name(self):
        assert "(unnamed)" in render_flame({"wall_seconds": 0.5})

    def test_summary_handles_mixed_docs(self):
        docs = [self.BARE, synthesize_root(orphan_fragments())]
        summary = summarise_spans(docs)
        assert summary["traces"] == 2
        assert "mystery" in summary["by_name"]
        assert "(orphaned spans)" in summary["by_name"]
        text = render_file_summary(docs)
        assert "traces      : 2" in text
