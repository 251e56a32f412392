"""Process-wide metrics: Counter / Gauge / Histogram behind one registry.

The registry is the single sink every subsystem reports into — the batch
service, the stream service, the HTTP gateway and the LLM/cache layers all
register their counters here instead of keeping ad-hoc dict/attribute
counters.  Everything is stdlib-only and thread-safe: metric updates take a
per-metric lock, and :meth:`MetricsRegistry.snapshot` returns a deep-copied,
immutable view that never observes a torn update.

Exposition comes in two shapes:

* :meth:`MetricsRegistry.snapshot` — nested plain dicts for JSON endpoints;
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count`` series
  for histograms) so a stock Prometheus scraper can consume ``/metrics``.

Metric names follow ``repro_<subsystem>_<what>[_total|_seconds]``; labels
are a fixed, declared set per metric (mismatched labels raise).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: latency-shaped, seconds (same spirit as
#: Prometheus' defaults but extended downwards for sub-millisecond spans).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile over an ascending-sorted sample list.

    ``fraction`` is in ``[0, 1]``.  Unlike nearest-rank-by-``round`` (the
    pre-``repro.obs`` behaviour), the value interpolates between the two
    adjacent order statistics, so ``percentile([1, 2], 0.5) == 1.5`` and the
    reported p-value moves smoothly as samples arrive instead of jumping
    with banker's rounding.
    """
    if not sorted_values:
        return 0.0
    if fraction <= 0:
        return float(sorted_values[0])
    if fraction >= 1:
        return float(sorted_values[-1])
    rank = fraction * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(sorted_values[lo])
    weight = rank - lo
    return float(sorted_values[lo]) * (1.0 - weight) + float(sorted_values[hi]) * weight


def _label_key(
    label_names: Tuple[str, ...], labels: Mapping[str, Any], metric: str
) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"metric {metric!r} expects labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: Number) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Metric:
    """Shared plumbing: name/help/labels, a lock, per-label-key children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):  # noqa: A002
        if not _NAME_OK.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_OK.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        return _label_key(self.label_names, labels, self.name)

    def _render_labels(self, key: Tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.label_names, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter(_Metric):
    """Monotonically increasing counter (per label combination)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):  # noqa: A002
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: Number = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def _snapshot_values(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = list(self._values.items())
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(items)
        ]

    def _render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0)]
        for key, value in items:
            lines.append(f"{self.name}{self._render_labels(key)} {_format_number(value)}")


class Gauge(_Metric):
    """A value that can go up and down (queue depths, uptime, saturation)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):  # noqa: A002
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: Number, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def inc(self, amount: Number = 1, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: Number = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def _snapshot_values(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = list(self._values.items())
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(items)
        ]

    def _render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0)]
        for key, value in items:
            lines.append(f"{self.name}{self._render_labels(key)} {_format_number(value)}")


class _HistogramChild:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Bucketed distribution with Prometheus semantics.

    Each label combination keeps its bucket counts, sum and count, and
    nothing per observation, so a histogram's state stays the same size
    however long the process runs.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} buckets must be sorted ascending")
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._children: Dict[Tuple[str, ...], _HistogramChild] = {}

    def _child(self, labels: Mapping[str, Any]) -> _HistogramChild:
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children.setdefault(key, _HistogramChild(len(self.buckets)))
        return child

    def observe(self, value: Number, **labels: Any) -> None:
        value = float(value)
        with self._lock:
            child = self._child(labels)
            index = bisect_left(self.buckets, value)
            if index < len(child.bucket_counts):
                child.bucket_counts[index] += 1
            child.sum += value
            child.count += 1

    # -- reading -----------------------------------------------------------------
    def count(self, **labels: Any) -> int:
        with self._lock:
            child = self._children.get(self._key(labels))
            return child.count if child else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            child = self._children.get(self._key(labels))
            return child.sum if child else 0.0

    def _snapshot_values(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = [
                (
                    key,
                    {
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            _format_number(le): count
                            for le, count in zip(self.buckets, child.bucket_counts)
                        },
                    },
                )
                for key, child in self._children.items()
            ]
        return [
            {"labels": dict(zip(self.label_names, key)), "value": value}
            for key, value in sorted(items)
        ]

    def _render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(
                (key, list(child.bucket_counts), child.sum, child.count)
                for key, child in self._children.items()
            )
        for key, bucket_counts, total, count in items:
            cumulative = 0
            for le, bucket_count in zip(self.buckets, bucket_counts):
                cumulative += bucket_count
                extra = f'le="{_format_number(le)}"'
                lines.append(
                    f"{self.name}_bucket{self._render_labels(key, extra)} {cumulative}"
                )
            inf_labels = self._render_labels(key, extra='le="+Inf"')
            lines.append(f"{self.name}_bucket{inf_labels} {count}")
            lines.append(f"{self.name}_sum{self._render_labels(key)} {_format_number(total)}")
            lines.append(f"{self.name}_count{self._render_labels(key)} {count}")


class MetricsRegistry:
    """Get-or-create home for every metric of one process (or one gateway).

    ``counter`` / ``gauge`` / ``histogram`` are idempotent: asking for an
    existing name returns the registered object (and raises when the kind or
    label set differs — two subsystems cannot silently fight over a name).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration -----------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, label_names: Sequence[str], **kwargs):  # noqa: A002
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != tuple(label_names):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{list(existing.label_names)}, not {list(label_names)}"
                    )
                return existing
            metric = cls(name, help=help, label_names=label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> Counter:  # noqa: A002
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> Gauge:  # noqa: A002
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, label_names, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def clear(self) -> None:
        """Drop every registered metric (test isolation helper)."""
        with self._lock:
            self._metrics.clear()

    # -- exposition --------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Deep-copied point-in-time view: safe to hold, never updated."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: {
                "type": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "values": metric._snapshot_values(),
            }
            for name, metric in metrics
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                escaped = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {name} {escaped}")
            lines.append(f"# TYPE {name} {metric.kind}")
            metric._render(lines)
        return "\n".join(lines) + "\n"


#: Content-Type a Prometheus scrape expects.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (LLM/cache counters live here)."""
    return _default_registry


def prometheus_gauges_from(
    registry: MetricsRegistry, prefix: str, values: Mapping[str, Any], help: str = ""  # noqa: A002
) -> None:
    """Mirror a flat mapping of numbers into ``<prefix>_<key>`` gauges.

    The bridge for snapshot-shaped stats (cache stats, queue depths) that
    are computed at scrape time rather than incremented at event time.
    Non-numeric values are skipped; booleans become 0/1.
    """
    for key, value in values.items():
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            continue
        registry.gauge(f"{prefix}_{key}", help=help).set(value)
