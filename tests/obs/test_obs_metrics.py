"""The metrics registry: exactness, registration rules, Prometheus text."""

import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    percentile,
    prometheus_gauges_from,
)


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_interpolates_between_ranks(self):
        # The historical round()-based nearest-rank picked an endpoint here.
        assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_quartiles_of_five(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 0.25) == pytest.approx(20.0)
        assert percentile(values, 0.5) == pytest.approx(30.0)
        assert percentile(values, 0.75) == pytest.approx(40.0)

    def test_fraction_clamped_to_range(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -0.5) == 1.0
        assert percentile(values, 1.5) == 3.0

    def test_monotone_in_fraction(self):
        values = sorted([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        points = [percentile(values, f / 20.0) for f in range(21)]
        assert points == sorted(points)


class TestCounterAndGauge:
    def test_counter_inc_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", label_names=("status",))
        counter.inc(status="ok")
        counter.inc(2, status="ok")
        counter.inc(status="failed")
        assert counter.value(status="ok") == 3
        assert counter.value(status="failed") == 1
        assert counter.value(status="never-seen") == 0
        assert counter.total() == 4

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.inc(-3)
        assert gauge.value() == 4

    def test_unknown_label_rejected(self):
        counter = MetricsRegistry().counter("jobs_total", label_names=("status",))
        with pytest.raises(ValueError):
            counter.inc(colour="red")


class TestHistogram:
    def test_count_and_sum(self):
        hist = MetricsRegistry().histogram("seconds", label_names=("kind",))
        for value in (0.1, 0.2, 0.3):
            hist.observe(value, kind="a")
        hist.observe(5.0, kind="b")
        assert hist.count(kind="a") == 3
        assert hist.sum(kind="a") == pytest.approx(0.6)
        assert hist.count(kind="b") == 1 and hist.sum(kind="b") == 5.0
        assert hist.count(kind="never-seen") == 0 and hist.sum(kind="never-seen") == 0.0

    def test_state_does_not_grow_with_observations(self):
        def state_bytes(hist):
            (child,) = hist._children.values()
            return sys.getsizeof(child) + sum(
                sys.getsizeof(getattr(child, slot)) for slot in child.__slots__
            )

        hist = MetricsRegistry().histogram("seconds")
        hist.observe(0.5)
        after_one = state_bytes(hist)
        for i in range(10_000):
            hist.observe(0.001 * (i % 97))
        assert state_bytes(hist) == after_one
        assert hist.count() == 10_001

    def test_buckets_must_be_sorted(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(1.0, 0.5))


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("jobs_total", label_names=("status",))
        b = registry.counter("jobs_total", label_names=("status",))
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("jobs_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", label_names=("status",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("jobs_total", label_names=("state",))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", label_names=("status",)).inc(status="ok")
        registry.gauge("depth").set(3)
        registry.histogram("seconds").observe(0.25)
        snap = registry.snapshot()
        assert set(snap) == {"jobs_total", "depth", "seconds"}
        assert snap["jobs_total"]["type"] == "counter"
        assert snap["jobs_total"]["values"] == [{"labels": {"status": "ok"}, "value": 1}]
        assert snap["seconds"]["values"][0]["value"]["count"] == 1


class TestPrometheusRendering:
    def test_counter_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_jobs_total", help="Jobs", label_names=("status",))
        counter.inc(3, status="ok")
        text = registry.render_prometheus()
        assert "# HELP repro_jobs_total Jobs" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{status="ok"} 3' in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("events_total", label_names=("event",)).inc(event='a"b\\c\nd')
        line = [l for l in registry.render_prometheus().splitlines() if l.startswith("events_total{")][0]
        assert '\\"' in line and "\\\\" in line and "\\n" in line

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        lines = registry.render_prometheus().splitlines()
        assert 'seconds_bucket{le="0.1"} 1' in lines
        assert 'seconds_bucket{le="1"} 3' in lines
        assert 'seconds_bucket{le="+Inf"} 4' in lines
        assert "seconds_sum 6.05" in lines
        assert "seconds_count 4" in lines

    def test_unlabelled_counter_renders_zero(self):
        registry = MetricsRegistry()
        registry.counter("untouched_total", help="never incremented")
        assert "untouched_total 0" in registry.render_prometheus()

    def test_gauges_from_mapping_bridge(self):
        registry = MetricsRegistry()
        prometheus_gauges_from(
            registry,
            "repro_cache",
            {"hits": 5, "hit_rate": 0.5, "enabled": True, "name": "skipped"},
        )
        text = registry.render_prometheus()
        assert "repro_cache_hits 5" in text
        assert "repro_cache_hit_rate 0.5" in text
        assert "repro_cache_enabled 1" in text
        assert "name" not in text  # non-numeric values are skipped

    def test_default_buckets_cover_subsecond_to_minutes(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 60.0


class TestConcurrency:
    def test_no_lost_increments_under_contention(self):
        """N threads hammer a labelled counter + histogram; totals stay exact."""
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", label_names=("worker",))
        hist = registry.histogram("op_seconds")
        threads, per_thread = 8, 2000
        # Parties: the writer threads, the reader thread, and this test thread.
        start = threading.Barrier(threads + 2)
        stop_reading = threading.Event()

        def writer(worker_id):
            start.wait()
            for i in range(per_thread):
                counter.inc(worker=str(worker_id))
                hist.observe(0.001 * (i % 7))

        def reader():
            # Snapshots and renders race the writers; they must never crash
            # and never observe more than the final totals.
            start.wait()
            while not stop_reading.is_set():
                snap_total = counter.total()
                assert 0 <= snap_total <= threads * per_thread
                registry.snapshot()
                registry.render_prometheus()

        workers = [threading.Thread(target=writer, args=(i,)) for i in range(threads)]
        observer = threading.Thread(target=reader)
        for thread in workers:
            thread.start()
        observer.start()
        start.wait()
        for thread in workers:
            thread.join()
        stop_reading.set()
        observer.join()

        assert counter.total() == threads * per_thread
        for worker_id in range(threads):
            assert counter.value(worker=str(worker_id)) == per_thread
        assert hist.count() == threads * per_thread
        expected_sum = threads * sum(0.001 * (i % 7) for i in range(per_thread))
        assert hist.sum() == pytest.approx(expected_sum)

    def test_concurrent_get_or_create_returns_one_object(self):
        registry = MetricsRegistry()
        results = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            results.append(registry.counter("shared_total", label_names=("k",)))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(obj) for obj in results}) == 1
