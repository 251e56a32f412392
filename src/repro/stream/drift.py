"""Distribution-drift detection over mergeable column profiles.

Plan replay is only sound while new data looks like the data the plan was
derived from: the cached value maps cover the dirty values that actually
arrive, the canonical representations are still the majority ones, the
numeric ranges still describe the column.  The drift detector watches the
incremental profiles for exactly those failure modes and reports a
per-column distance, the mean of four signals:

* **frequency shift** — total-variation distance between the top-value
  distributions (each profile's ``TOP_K`` most frequent values) at plan
  time and now (a flipped majority can invalidate the
  canonical-representation choices);
* **null shift** — absolute change of the null fraction;
* **pattern shift** — total-variation distance between the character-class
  *shape* mixes (``\\d{5}`` vs ``\\d{5}-\\d{4}`` style signatures from
  :func:`repro.llm.semantic.value_shape`), catching format changes that
  value-level counts miss;
* **new-value mass** — the fraction of current non-null occurrences whose
  value was never seen at plan time, the direct measure of replay coverage.

A column whose distance crosses ``DriftConfig.threshold`` is *drifted*; the
streaming engine then re-prompts only those columns.  The plan-time side of
every signal is computed once, when the baseline is set, and then frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.profiling.mergeable import MergeableColumnProfile

#: Below this many cumulative rows the detector stays silent: micro-batch
#: statistics are too noisy to re-prompt on.
MIN_ROWS = 30
#: Columns whose values are (nearly) all distinct — identifiers, free
#: text — never settle: every batch brings new values by construction.
#: Above this unique ratio a column is exempt from drift, mirroring the
#: free-text skip of the string-outlier operator.
MAX_UNIQUE_RATIO = 0.9


@dataclass(frozen=True)
class DriftConfig:
    """The drift detector's one setting."""

    # Distance above which a column counts as drifted.
    threshold: float = 0.25

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError(
                f"drift threshold must be a finite number >= 0, got {self.threshold}"
            )


@dataclass
class ColumnDrift:
    """Per-column drift assessment."""

    column: str
    distance: float
    frequency_shift: float
    null_shift: float
    pattern_shift: float
    new_value_mass: float
    drifted: bool

    def to_dict(self) -> Dict[str, float]:
        return {
            "column": self.column,
            "distance": round(self.distance, 6),
            "frequency_shift": round(self.frequency_shift, 6),
            "null_shift": round(self.null_shift, 6),
            "pattern_shift": round(self.pattern_shift, 6),
            "new_value_mass": round(self.new_value_mass, 6),
            "drifted": self.drifted,
        }


@dataclass(frozen=True)
class _Signals:
    """One profile's side of every drift signal."""

    top: Dict[str, float]
    shapes: Dict[str, float]
    null_fraction: float
    unique_ratio: float


#: A plan-time profile, frozen: its signals and the set of values it had seen.
_Baseline = Tuple[_Signals, FrozenSet[str]]


def _top_distribution(profile: MergeableColumnProfile) -> Dict[str, float]:
    # The profile keeps its TOP_K values ranked as it folds: no scan of
    # every distinct value here.
    top = profile.top()
    total = sum(count for _, count in top)
    if not total:
        return {}
    return {value: count / total for value, count in top}


def _shape_distribution(profile: MergeableColumnProfile) -> Dict[str, float]:
    # The profile folds the shape mix per batch, so no value is re-shaped here.
    total = profile.non_null_count
    if not total:
        return {}
    return {shape: count / total for shape, count in profile.shapes.items()}


def _signals(profile: MergeableColumnProfile) -> _Signals:
    non_null = profile.non_null_count
    return _Signals(
        top=_top_distribution(profile),
        shapes=_shape_distribution(profile),
        null_fraction=profile.null_count / profile.row_count if profile.row_count else 0.0,
        unique_ratio=len(profile.counts) / non_null if non_null else 0.0,
    )


def _freeze(profile: MergeableColumnProfile) -> _Baseline:
    return _signals(profile), frozenset(profile.counts)


def _total_variation(a: Dict[str, float], b: Dict[str, float]) -> float:
    # Sum in insertion order (a's keys, then b's new ones), never set order:
    # set order follows per-process string hashes, and a float sum that
    # moves in the last bit can flip a borderline ``distance > threshold``.
    keys = list(a) + [k for k in b if k not in a]
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def _seen_occurrences(seen: FrozenSet[str], current: MergeableColumnProfile) -> int:
    """How many of ``current``'s non-null occurrences hold a value in ``seen``."""
    # O(plan-time distinct values), not O(current distinct values); exact
    # integer arithmetic, so the order ``seen`` iterates in cannot matter.
    counts = current.counts
    return sum(counts.get(value, 0) for value in seen)


def _compare(
    baseline: _Baseline, current: MergeableColumnProfile, config: DriftConfig, seen_count: int
) -> ColumnDrift:
    """Assess ``current`` against ``baseline``; ``seen_count`` is
    ``_seen_occurrences`` of the baseline's values in ``current``."""
    then, now = baseline[0], _signals(current)
    frequency = _total_variation(then.top, now.top)
    null_shift = abs(then.null_fraction - now.null_fraction)
    pattern = _total_variation(then.shapes, now.shapes)
    total = current.non_null_count
    new_mass = (total - seen_count) / total if total else 0.0
    distance = (frequency + null_shift + pattern + new_mass) / 4
    key_like = then.unique_ratio > MAX_UNIQUE_RATIO or now.unique_ratio > MAX_UNIQUE_RATIO
    return ColumnDrift(
        column=current.name,
        distance=distance,
        frequency_shift=frequency,
        null_shift=null_shift,
        pattern_shift=pattern,
        new_value_mass=new_mass,
        drifted=(
            not key_like and current.row_count >= MIN_ROWS and distance > config.threshold
        ),
    )


def profile_distance(
    baseline: MergeableColumnProfile,
    current: MergeableColumnProfile,
    config: Optional[DriftConfig] = None,
) -> ColumnDrift:
    """Drift distance between a plan-time profile and the present one."""
    frozen = _freeze(baseline)
    return _compare(frozen, current, config or DriftConfig(), _seen_occurrences(frozen[1], current))


class DriftDetector:
    """Holds frozen plan-time baselines and assesses the live profiles against them.

    New-value mass needs, per column, how many live occurrences hold a
    plan-time value.  The detector keeps that count running instead of
    summing the live count of every plan-time value on every assessment:
    :meth:`set_baseline` resets it (every occurrence a baseline profile
    folded is seen), and :meth:`observe` advances it by one membership test
    per value of each ingested batch.  The integers are those of the sum, so
    the distances are the same floats.
    """

    def __init__(self, config: Optional[DriftConfig] = None):
        self.config = config or DriftConfig()
        self._baselines: Dict[str, _Baseline] = {}
        # column -> [occurrences of baseline values, rows they were counted over]
        self._seen_counts: Dict[str, List[int]] = {}

    def set_baseline(self, profiles: Dict[str, MergeableColumnProfile]) -> None:
        """Freeze the profiles the current plan was derived from.

        The live accumulators keep updating afterwards; the baseline keeps
        its own signals and its own set of seen values.
        """
        for name, profile in profiles.items():
            self._baselines[name] = _freeze(profile)
            self._seen_counts[name] = [profile.non_null_count, profile.row_count]

    def observe(self, batch: Table) -> None:
        """Count the values of one ingested batch that the baselines have seen.

        Call it with every batch the live profiles fold after a baseline is
        set; columns with no baseline yet are skipped.
        """
        for column in batch.columns:
            tally = self._seen_counts.get(column.name)
            if tally is None:
                continue
            seen = self._baselines[column.name][1]
            values = column.values
            # The profile counts ``str(value)`` of the non-null values.
            tally[0] += sum(1 for value in values if str(value) in seen and not is_null(value))
            tally[1] += len(values)

    def assess(self, profiles: Dict[str, MergeableColumnProfile]) -> List[ColumnDrift]:
        """Compare live profiles to the baselines."""
        if not self._baselines:
            raise RuntimeError("DriftDetector.assess called before set_baseline")
        drifts = []
        for name, profile in profiles.items():
            baseline = self._baselines.get(name)
            if baseline is None:
                continue
            tally = self._seen_counts[name]
            if tally[1] != profile.row_count:
                # The profile folded rows this detector did not observe, as
                # when a prime window is shorter than the rows ingested:
                # count from the profile once, then run on from there.
                tally[:] = [_seen_occurrences(baseline[1], profile), profile.row_count]
            drifts.append(_compare(baseline, profile, self.config, tally[0]))
        return drifts
