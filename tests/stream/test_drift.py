"""Drift detection: profile distance signals and selective re-prompting."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Table
from repro.profiling import MergeableColumnProfile
from repro.stream import DriftConfig, DriftDetector, StreamingCleaner, profile_distance
from repro.stream import drift as drift_module
from repro.stream.drift import MIN_ROWS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "property"))
import drift_oracle  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src"


def profile_of(values, name="c"):
    return MergeableColumnProfile(name).update(values)


class TestProfileDistance:
    def test_identical_profiles_have_zero_distance(self):
        a = profile_of(["x"] * 30 + ["y"] * 10)
        drift = profile_distance(a, a)
        assert drift.distance == 0.0
        assert not drift.drifted

    def test_new_value_mass_counts_unseen_values(self):
        baseline = profile_of(["x"] * 40)
        current = profile_of(["x"] * 40 + ["z"] * 40)
        drift = profile_distance(baseline, current)
        assert drift.new_value_mass == pytest.approx(0.5)
        assert drift.frequency_shift > 0

    def test_null_shift(self):
        baseline = profile_of(["x"] * 40)
        current = profile_of(["x"] * 20 + [None] * 20)
        drift = profile_distance(baseline, current)
        assert drift.null_shift == pytest.approx(0.5)

    def test_pattern_shift_catches_format_change(self):
        iso = ["2021-01-%02d" % d for d in range(1, 10)] * 4
        baseline = profile_of(iso)
        # Same "new values" magnitude but a different shape mix.
        current = profile_of(iso + ["01/%02d/2021" % d for d in range(1, 10)] * 8)
        drift = profile_distance(baseline, current)
        assert drift.pattern_shift > 0.4

    def test_key_like_columns_never_drift(self):
        baseline = profile_of([f"id-{i}" for i in range(40)])
        current = profile_of([f"id-{i}" for i in range(40, 400)])
        drift = profile_distance(baseline, current, DriftConfig(threshold=0.01))
        assert drift.new_value_mass > 0.8
        assert not drift.drifted  # exempt: unique ratio above max_unique_ratio

    def test_min_rows_gate(self):
        baseline = profile_of(["x"] * 5)
        current = profile_of(["x"] * 5 + ["z"] * (MIN_ROWS - 6))
        config = DriftConfig(threshold=0.05)
        assert not profile_distance(baseline, current, config).drifted
        current.update(["z"])  # the MIN_ROWS-th row opens the gate
        assert profile_distance(baseline, current, config).drifted

    def test_distance_is_independent_of_string_hash_seed(self):
        # Total-variation sums used to run in set order, which follows the
        # per-process string hash seed and moved the float's last bit.
        script = (
            "from repro.profiling import MergeableColumnProfile as P\n"
            "from repro.stream import profile_distance\n"
            "mix = ['a1', 'b22', 'c-3', 'DD', 'e.5', 'f 6', '77', 'x_y'] * 3 + ['a1'] * 7\n"
            "tail = ['zz9', 'Q-1', '8.8', 'b22', 'DD', 'm m'] * 2\n"
            "print(repr(profile_distance(P('c').update(mix), P('c').update(mix + tail))))\n"
        )
        outputs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(run.stdout)
        assert len(outputs) == 1, outputs

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.01])
    def test_threshold_must_be_finite_and_non_negative(self, threshold):
        with pytest.raises(ValueError, match="drift threshold"):
            DriftConfig(threshold=threshold)


class TestDriftDetector:
    def test_assess_requires_baseline(self):
        with pytest.raises(RuntimeError):
            DriftDetector().assess({"c": profile_of(["x"])})

    def test_baseline_is_snapshotted_not_aliased(self):
        live = profile_of(["x"] * 40)
        detector = DriftDetector(DriftConfig(threshold=0.1))
        detector.set_baseline({"c": live})
        live.update(["z"] * 120)  # live accumulator keeps moving
        drifts = detector.assess({"c": live})
        assert drifts[0].drifted  # baseline stayed at plan time


def seen_mass_by_sum(seen, current):
    """New-value mass as every assessment used to count it: the live count of every seen value."""
    total = current.non_null_count
    if not total:
        return 0.0
    counts = current.counts
    return (total - sum(counts.get(value, 0) for value in seen)) / total


VALUES = st.sampled_from([None, math.nan, "x", "y", "z", "1", 1, 1.0, True, "None", "nan", ""])
BATCHES = st.lists(
    st.tuples(
        st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=6),
        st.sampled_from(["none", "assess", "all", "prefix", "partial"]),
    ),
    min_size=1,
    max_size=12,
)


class TestRunningSeenCount:
    """The detector folds the seen-value count per batch; it must equal the per-assessment sum."""

    @settings(max_examples=300, deadline=None)
    @given(BATCHES, st.integers(0, 5))
    def test_new_value_mass_equals_the_sum_over_seen_values(self, batches, prefix_rows):
        detector = DriftDetector()
        live = {"a": MergeableColumnProfile("a"), "b": MergeableColumnProfile("b")}
        ingested = {"a": [], "b": []}
        seen = {}
        for rows, action in batches:
            batch = Table.from_dict("t", {"a": [a for a, _ in rows], "b": [b for _, b in rows]})
            for column in batch.columns:
                live[column.name].update(column)
                ingested[column.name].extend(column.values)
            detector.observe(batch)
            if action == "all":
                baselines = live
            elif action == "prefix":
                # A prime window shorter than the rows ingested so far.
                baselines = {name: profile_of(values[:prefix_rows], name) for name, values in ingested.items()}
            elif action == "partial":
                # A re-plan re-baselines only its drifted columns.
                baselines = {"b": live["b"]}
            else:
                baselines = {}
            detector.set_baseline(baselines)
            seen.update({name: frozenset(profile.counts) for name, profile in baselines.items()})
            if seen and action in ("assess", "partial"):
                drifts = detector.assess(live)
                assert [d.column for d in drifts] == sorted(seen)
                for drift in drifts:
                    profile = live[drift.column]
                    assert drift.new_value_mass == seen_mass_by_sum(seen[drift.column], profile)
                    assert drift.new_value_mass == drift_oracle.new_value_mass(seen[drift.column], profile)

    def test_stream_drift_reports_equal_the_sum_over_seen_values(self, drifting_stream_batches, monkeypatch):
        sums = []
        monkeypatch.setattr(
            drift_module, "_seen_occurrences", lambda seen, current: sums.append(current.name) or 0
        )
        stream = StreamingCleaner("articles", detect_drift=True, drift_config=DriftConfig(threshold=0.12))
        prime, steady, drifted = drifting_stream_batches
        checked = 0
        for batch in (prime, steady, drifted, steady, drifted):
            seen = {name: baseline[1] for name, baseline in stream.detector._baselines.items()}
            result = stream.process_batch(batch)
            for drift in result.drift:
                profile = stream._raw_profiles[drift.column]
                assert drift.new_value_mass == seen_mass_by_sum(seen[drift.column], profile)
                checked += 1
        assert checked >= 6 and stream.stats.replans >= 1
        # The stream observes every batch it folds, so no assessment falls
        # back to summing the live count of every seen value.
        assert sums == []


def language_batch(start, languages):
    return Table.from_dict(
        "articles",
        {
            "article_id": [str(1000 + start + i) for i in range(len(languages))],
            "language": languages,
        },
    )


@pytest.fixture()
def drifting_stream_batches():
    prime = language_batch(0, ["eng"] * 20 + ["English"] * 3 + ["fre"] * 8 + ["French"] * 2)
    steady = language_batch(33, ["eng"] * 10 + ["fre"] * 5)
    # A redundant-representation pair unseen at prime time floods the tail.
    drifted = language_batch(48, ["ger"] * 18 + ["German"] * 8)
    return prime, steady, drifted


class TestSelectiveReprompting:
    def test_drift_off_replays_blindly(self, drifting_stream_batches):
        stream = StreamingCleaner("articles", detect_drift=False)
        for batch in drifting_stream_batches:
            result = stream.process_batch(batch)
        assert result.replayed and result.llm_calls == 0
        values = stream.cleaned_table().column("language").values
        assert values.count("German") == 8  # plan coverage gap left as-is

    def test_drift_on_reprompts_only_the_drifted_column(self, drifting_stream_batches):
        config = DriftConfig(threshold=0.12)
        stream = StreamingCleaner("articles", detect_drift=True, drift_config=config)
        prime, steady, drifted = drifting_stream_batches
        primed = stream.process_batch(prime)
        plan_before = [
            (s.kind, s.target, dict(s.payload.get("mapping") or {})) for s in stream.plan.steps
        ]
        mid = stream.process_batch(steady)
        assert mid.replayed and mid.llm_calls == 0 and not mid.drifted_columns

        result = stream.process_batch(drifted)
        assert result.drifted_columns == ["language"]  # article_id is key-like: exempt
        assert not result.replayed
        assert result.llm_calls > 0
        # The spliced plan now maps the new representation; old entries kept.
        maps = {
            s.target: s.payload["mapping"] for s in stream.plan.steps if s.kind == "value_map"
        }
        assert maps["language"]["German"] == "ger"
        assert maps["language"]["English"] == "eng"
        values = stream.cleaned_table().column("language").values
        assert values.count("German") == 0
        assert values.count("ger") == 26
        assert stream.stats.replans == 1
        # Only the language column was re-prompted: far fewer calls than a prime.
        assert result.llm_calls < primed.llm_calls
        assert plan_before != [
            (s.kind, s.target, dict(s.payload.get("mapping") or {})) for s in stream.plan.steps
        ]

    def test_replan_rewrites_already_emitted_cells(self, drifting_stream_batches):
        config = DriftConfig(threshold=0.02)
        stream = StreamingCleaner("articles", detect_drift=True, drift_config=config)
        prime, steady, drifted = drifting_stream_batches
        stream.process_batch(prime)
        stream.process_batch(steady)
        result = stream.process_batch(drifted)
        # Upserts replace history: re-added row ids overlap earlier batches
        # only if their cells changed; at minimum the new batch is present.
        added_ids = set(result.added_row_ids)
        assert added_ids.issuperset(set(range(48, 48 + drifted.num_rows)))
