"""The lazy per-version table profile.

Every cached or carried-over result must equal a fresh computation on the
table version it describes, and a clean must pay for each piece of profiling
work once per column version, not once per step.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.profiling.table_profile as table_profile_module
from repro import CocoonCleaner, load_dataset, obs
from repro.core.context import CleaningContext
from repro.core.plan import extract_plan
from repro.dataframe import Column, Table
from repro.dataframe.schema import ColumnType
from repro.datasets.registry import dataset_names
from repro.llm import SimulatedSemanticLLM
from repro.obs import get_tracer
from repro.profiling import (
    discover_fds,
    duplicate_row_count,
    duplicate_row_samples,
    profile_column,
    profile_table,
)
from repro.sql.database import Database


def _count_calls(monkeypatch, *names):
    """Count calls to the named module functions as ``table_profile`` makes them."""
    calls = Counter()
    for name in names:
        original = getattr(table_profile_module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(table_profile_module, name, counting)
    return calls


def _context(table: Table) -> CleaningContext:
    db = Database()
    db.register(table)
    return CleaningContext(db, SimulatedSemanticLLM(), table.name)


@pytest.mark.parametrize("dataset", dataset_names())
def test_every_version_profile_equals_a_fresh_one(dataset, monkeypatch):
    versions = {}
    original = CleaningContext.profile

    def recording(self):
        profile = original(self)
        versions.setdefault(id(profile), (profile, self.data_only_table(), self.config))
        return profile

    monkeypatch.setattr(CleaningContext, "profile", recording)
    CocoonCleaner().clean(load_dataset(dataset, scale=0.05).dirty)

    assert len(versions) > 1, "the clean should reach more than one table version"
    for profile, table, config in versions.values():
        assert profile.column_names == table.column_names
        for name in table.column_names:
            assert profile.column(name) == profile_column(table.column(name), max_values=config.sample_values)
        assert profile.fd_candidates == discover_fds(table, min_score=config.fd_min_score)
        assert profile.duplicate_rows == duplicate_row_count(table)
        assert profile.duplicate_samples == duplicate_row_samples(table)


def test_hospital_profiles_each_column_version_once(monkeypatch):
    calls = _count_calls(
        monkeypatch, "profile_column", "discover_fds", "duplicate_row_count", "duplicate_row_samples"
    )
    dirty = load_dataset("hospital", scale=0.2).dirty
    result = CocoonCleaner().clean(dirty)
    # Each row-local step rewrites exactly one column.
    rewrites = sum(1 for step in extract_plan(result).steps if step.row_local)
    assert rewrites > 0
    assert calls["discover_fds"] == 1
    assert calls["duplicate_row_count"] == 1
    assert calls["profile_column"] <= dirty.num_columns + rewrites


@pytest.mark.parametrize(
    "before, after",
    [(0.0, -0.0), (1, 1.0), (1, True)],
    ids=["zero-sign", "int-float", "int-bool"],
)
def test_equal_but_not_identical_values_are_reprofiled(before, after):
    assert before == after and str(before) != str(after)
    untouched = Column("y", ["a", "b"])
    context = _context(Table("t", [Column("x", [before, 2.5], ColumnType.DOUBLE), untouched]))
    first = context.profile()
    x_before, y_before = first.column("x"), first.column("y")

    rewritten = Column("x", [after, 2.5], ColumnType.DOUBLE)
    context.db.register(Table("t_step1", [rewritten, untouched]))
    context.advance("t_step1", "-- rewrite x")
    second = context.profile()

    assert second is not first
    assert second.column("y") is y_before
    assert second.column("x") == profile_column(rewritten)
    assert second.column("x").top_values != x_before.top_values


def test_profile_is_keyed_by_table_identity_not_name():
    context = _context(Table.from_dict("t", {"x": ["a", "a", "b"]}))
    first = context.profile()
    assert context.profile() is first
    context.db.register(Table.from_dict("t", {"x": ["a", "b", "c"]}))
    second = context.profile()
    assert second is not first
    assert second.column("x").distinct_count == 3


def test_table_level_stats_wait_for_their_first_read(monkeypatch):
    calls = _count_calls(
        monkeypatch, "profile_column", "discover_fds", "duplicate_row_count", "duplicate_row_samples"
    )
    table = Table.from_dict("t", {"code": ["A", "A", "B", "B"], "name": ["x", "x", "y", "y"]})
    profile = profile_table(table, fd_min_score=0.5)
    assert profile.row_count == 4
    assert not calls
    profile.column("code")
    profile.column("code")
    assert calls == Counter({"profile_column": 1})
    assert profile.duplicate_rows == 2
    assert profile.duplicate_rows == 2
    assert calls["duplicate_row_count"] == 1 and calls["duplicate_row_samples"] == 0
    assert profile.fd_candidates == profile.fd_candidates
    assert calls["discover_fds"] == 1


def test_lazy_work_is_traced_under_the_operator_that_paid_for_it():
    tracer = get_tracer()
    was_enabled = tracer.enabled
    obs.configure(enabled=True)
    tracer.clear()
    try:
        CocoonCleaner().clean(load_dataset("hospital", scale=0.05).dirty)
        roots = [fragment for trace_id in tracer.trace_ids() for fragment in tracer.fragments(trace_id)]
    finally:
        tracer.clear()
        obs.configure(enabled=was_enabled)

    owners = {}

    def walk(span, operator):
        if span.name.startswith("profile."):
            owners.setdefault(span.name, set()).add(operator)
            if span.name == "profile.column":
                assert span.attrs["column"]
        for child in span.children:
            # The outermost operator span is the operator; deeper ones are its targets.
            walk(child, operator or (span.name if span.name.startswith("operator.") else None))

    for root in roots:
        walk(root, None)
    assert owners["profile.fds"] == {"operator.functional_dependency"}
    assert owners["profile.duplicates"] == {"operator.duplication"}
    assert None not in owners["profile.column"]
