"""Full-scan oracle for the drift detector's folded signals.

The detector reads each profile's top values and shape mix from what the
profile folds per batch, and counts new-value mass over the plan-time
values.  The functions here are the whole-column versions they replaced:
rank every distinct value with ``most_common``, re-shape every distinct
value, scan every current value.  Tests require identical results.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.llm.semantic import value_shape
from repro.profiling.mergeable import TOP_K, MergeableColumnProfile
from repro.stream.drift import (
    MAX_UNIQUE_RATIO,
    MIN_ROWS,
    ColumnDrift,
    DriftConfig,
    _total_variation,
)


def top_values(profile: MergeableColumnProfile) -> List[Tuple[str, int]]:
    """The ``TOP_K`` most common values, ranked by a scan of every count."""
    return profile.counts.most_common(TOP_K)


def top_distribution(profile: MergeableColumnProfile) -> Dict[str, float]:
    top = top_values(profile)
    total = sum(count for _, count in top)
    if not total:
        return {}
    return {value: count / total for value, count in top}


def shape_counts(profile: MergeableColumnProfile) -> Dict[str, int]:
    """Shape → occurrences, by re-shaping every distinct value in first-occurrence order."""
    shapes: Dict[str, int] = {}
    for value, count in profile.counts.items():
        shape = value_shape(value)
        shapes[shape] = shapes.get(shape, 0) + count
    return shapes


def shape_distribution(profile: MergeableColumnProfile) -> Dict[str, float]:
    shapes = shape_counts(profile)
    total = sum(shapes.values())
    if not total:
        return {}
    return {shape: count / total for shape, count in shapes.items()}


def new_value_mass(seen: FrozenSet[str], current: MergeableColumnProfile) -> float:
    total = current.non_null_count
    if not total:
        return 0.0
    unseen = sum(count for value, count in current.counts.items() if value not in seen)
    return unseen / total


def profile_distance(
    baseline: MergeableColumnProfile,
    current: MergeableColumnProfile,
    config: Optional[DriftConfig] = None,
) -> ColumnDrift:
    """:func:`repro.stream.drift.profile_distance`, computed by full scans."""
    config = config or DriftConfig()

    def unique_ratio(profile: MergeableColumnProfile) -> float:
        non_null = profile.non_null_count
        return len(profile.counts) / non_null if non_null else 0.0

    def null_fraction(profile: MergeableColumnProfile) -> float:
        return profile.null_count / profile.row_count if profile.row_count else 0.0

    frequency = _total_variation(top_distribution(baseline), top_distribution(current))
    null_shift = abs(null_fraction(baseline) - null_fraction(current))
    pattern = _total_variation(shape_distribution(baseline), shape_distribution(current))
    new_mass = new_value_mass(frozenset(baseline.counts), current)
    distance = (frequency + null_shift + pattern + new_mass) / 4
    key_like = unique_ratio(baseline) > MAX_UNIQUE_RATIO or unique_ratio(current) > MAX_UNIQUE_RATIO
    return ColumnDrift(
        column=current.name,
        distance=distance,
        frequency_shift=frequency,
        null_shift=null_shift,
        pattern_shift=pattern,
        new_value_mass=new_mass,
        drifted=not key_like and current.row_count >= MIN_ROWS and distance > config.threshold,
    )
