"""Tests for the obs metric primitives and the central registry."""

from __future__ import annotations

import math

import pytest

from repro.errors import SdradError
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    BucketHistogram,
    Counter,
    DEFAULT_BUCKETS,
    FLEET_LATENCY_BUCKETS,
    Gauge,
    OVERFLOW_LABELS,
    ObsRegistry,
    REWIND_LATENCY_BUCKETS,
    log_buckets,
)
from repro.sim.metrics import Histogram as ExactHistogram


class TestCounter:
    def test_monotone(self):
        c = Counter("requests")
        c.increment()
        c.increment(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.increment(-1)

    def test_labels_are_sorted_items(self):
        c = Counter("requests", labels={"status": "ok", "app": "memcached"})
        assert c.labels == (("app", "memcached"), ("status", "ok"))


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("live", initial=2)
        g.add(3)
        g.set(1.5)
        g.add(-0.5)
        assert g.value == pytest.approx(1.0)


class TestBucketHistogram:
    def test_validation(self):
        with pytest.raises(SdradError):
            BucketHistogram("h", buckets=())
        with pytest.raises(SdradError):
            BucketHistogram("h", buckets=(2.0, 1.0))
        with pytest.raises(SdradError):
            BucketHistogram("h", buckets=(1.0, 1.0))
        with pytest.raises(SdradError):
            BucketHistogram("h", buckets=(1.0, math.inf))

    def test_binning_is_le_inclusive(self):
        h = BucketHistogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(value)
        assert h.bucket_counts == [2, 2, 1]  # le=1, le=10, +Inf
        assert h.count == 5
        assert h.sum == pytest.approx(27.5)

    def test_cumulative_prometheus_shape(self):
        h = BucketHistogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(20.0)
        cum = h.cumulative()
        assert cum == [(1.0, 1), (10.0, 1), (math.inf, 2)]

    def test_mean_and_quantile(self):
        h = BucketHistogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            h.observe(value)
        assert h.mean() == pytest.approx(6.6 / 4)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0
        h.observe(100.0)
        assert h.quantile(1.0) == math.inf

    def test_quantile_interpolated_within_bucket(self):
        h = BucketHistogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (1.5, 1.5, 3.0, 3.0):
            h.observe(value)
        # Two samples in (1, 2]: the median rank (2 of 4) sits at the top
        # of that bucket; p25 sits halfway through it.
        assert h.quantile_interpolated(0.5) == pytest.approx(2.0)
        assert h.quantile_interpolated(0.25) == pytest.approx(1.5)
        assert h.quantile_interpolated(0.75) == pytest.approx(3.0)

    def test_quantile_interpolated_first_bucket_starts_at_zero(self):
        h = BucketHistogram("h", buckets=(2.0, 4.0))
        h.observe(1.0)
        h.observe(1.0)
        assert h.quantile_interpolated(0.5) == pytest.approx(1.0)

    def test_quantile_interpolated_overflow_clamps_to_last_bound(self):
        h = BucketHistogram("h", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile_interpolated(0.99) == 2.0

    def test_quantile_interpolated_validation(self):
        h = BucketHistogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile_interpolated(0.5)
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.quantile_interpolated(-0.1)

    def test_fine_ladder_resolves_p999(self):
        # The whole point of the fleet ladder: p99 and p999 of a bimodal
        # population come back near the true values, not one bucket edge.
        h = BucketHistogram("h", buckets=FLEET_LATENCY_BUCKETS)
        for _ in range(999):
            h.observe(1e-5)
        h.observe(5e-3)
        p999 = h.quantile_interpolated(0.999)
        assert 0.9e-5 < h.quantile_interpolated(0.5) < 1.2e-5
        assert 0.9e-5 < h.quantile_interpolated(0.99) < 1.2e-5
        assert 0.9e-5 < p999 < 1.2e-5
        assert 4e-3 < h.quantile_interpolated(1.0) < 6e-3

    def test_empty_histogram_errors(self):
        h = BucketHistogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.mean()
        with pytest.raises(ValueError):
            h.quantile(0.5)
        with pytest.raises(ValueError):
            h.quantile(2.0)


class TestLogBuckets:
    def test_geometric_spacing(self):
        bounds = log_buckets(1e-3, 1.0, 10)
        assert bounds[0] == pytest.approx(1e-3)
        assert bounds[-1] >= 1.0
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10 ** 0.1) for r in ratios)

    def test_strictly_increasing_and_usable(self):
        bounds = log_buckets(1e-7, 100.0, 20)
        assert list(bounds) == sorted(set(bounds))
        BucketHistogram("h", buckets=bounds)  # accepted by the validator

    def test_fleet_ladder_shape(self):
        assert FLEET_LATENCY_BUCKETS == log_buckets(1e-7, 100.0, 20)
        assert DEFAULT_BUCKETS["fleet_request_latency_seconds"] is (
            FLEET_LATENCY_BUCKETS
        )

    def test_validation(self):
        with pytest.raises(SdradError):
            log_buckets(0.0, 1.0, 10)
        with pytest.raises(SdradError):
            log_buckets(1.0, 1.0, 10)
        with pytest.raises(SdradError):
            log_buckets(1e-3, 1.0, 0)


class TestObsRegistry:
    def test_get_or_create_identity(self):
        reg = ObsRegistry()
        a = reg.counter("requests", app="memcached")
        b = reg.counter("requests", app="memcached")
        c = reg.counter("requests", app="nginx")
        assert a is b and a is not c

    def test_default_buckets_by_name(self):
        reg = ObsRegistry()
        h = reg.histogram("sdrad_rewind_latency_seconds")
        assert h.buckets == REWIND_LATENCY_BUCKETS
        b = reg.histogram("app_batch_size")
        assert b.buckets == tuple(float(x) for x in BATCH_SIZE_BUCKETS)
        assert set(DEFAULT_BUCKETS) >= {
            "app_request_latency_seconds",
            "sdrad_rewind_latency_seconds",
            "app_batch_size",
        }

    def test_counter_total_partial_label_match(self):
        reg = ObsRegistry()
        reg.counter("app_requests_total", app="memcached", status="ok").increment(3)
        reg.counter("app_requests_total", app="memcached", status="fault").increment()
        reg.counter("app_requests_total", app="nginx", status="ok").increment(5)
        assert reg.counter_total("app_requests_total") == 9
        assert reg.counter_total("app_requests_total", app="memcached") == 4
        assert reg.counter_total("app_requests_total", status="ok") == 8
        assert reg.counter_total("app_requests_total", app="tls") == 0

    def test_gauge_value_defaults_to_zero(self):
        reg = ObsRegistry()
        assert reg.gauge_value("missing") == 0.0
        reg.gauge("live").set(3)
        assert reg.gauge_value("live") == 3.0

    def test_snapshot_sorted_and_json_friendly(self):
        import json

        reg = ObsRegistry()
        reg.counter("b_total").increment()
        reg.counter("a_total", app="x").increment(2)
        reg.gauge("depth").set(1)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap['counter/a_total{app="x"}'] == 2
        hist = snap["histogram/lat"]
        assert hist["count"] == 1 and hist["buckets"]["+Inf"] == 1
        json.dumps(snap)

    def test_adopt_exact_histogram(self):
        reg = ObsRegistry()
        exact = ExactHistogram("exact_latency")
        exact.observe(1.0)
        reg.adopt_histogram(exact)
        assert reg.iter_adopted() == [exact]
        assert "summary/exact_latency" in reg.snapshot()
        with pytest.raises(SdradError):
            reg.adopt_histogram(object())


class TestLabelSetBound:
    """Every family holds at most ``LABEL_SETS_BOUND`` label sets; later
    new label sets share one overflow series (ROADMAP 6(e))."""

    BOUND = ObsRegistry.LABEL_SETS_BOUND

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_a_full_family_folds_new_label_sets_into_one_series(self, kind):
        reg = ObsRegistry()
        make = getattr(reg, kind)
        held = [make("family", client=str(i)) for i in range(self.BOUND)]
        other = make("other_family", client="0")
        past = [make("family", client=str(self.BOUND + i)) for i in range(3)]
        # The bound was reached: the three newcomers share one series ...
        assert past[0] is past[1] is past[2]
        assert past[0].labels == OVERFLOW_LABELS
        assert all(metric is not past[0] for metric in held)
        # ... every earlier series still resolves to itself ...
        assert [make("family", client=str(i)) for i in range(self.BOUND)] == held
        assert make("other_family", client="0") is other
        # ... and the family holds the bound plus its overflow series.
        metrics = getattr(reg, f"iter_{kind}s")()
        assert sum(m.name == "family" for m in metrics) == self.BOUND + 1

    def test_a_full_counter_family_keeps_its_total_exact(self):
        reg = ObsRegistry()
        for i in range(self.BOUND + 10):
            reg.counter("hits_total", key=f"k{i}").increment(2)
        assert reg.counter_total("hits_total") == 2 * (self.BOUND + 10)
        assert reg.counter_total("hits_total", **dict(OVERFLOW_LABELS)) == 20
        assert reg.counter_total("hits_total", key="k0") == 2
        snap = reg.snapshot()
        assert snap['counter/hits_total{overflow="true"}'] == 20
        assert 'counter/hits_total{key="k%d"}' % self.BOUND not in snap

    def test_the_bound_is_per_kind_and_name(self):
        reg = ObsRegistry()
        for i in range(self.BOUND):
            reg.counter("shared_name", n=str(i))
        assert reg.counter("shared_name", n="new").labels == OVERFLOW_LABELS
        assert reg.gauge("shared_name", n="new").labels == (("n", "new"),)
        assert reg.counter("fresh_name", n="new").labels == (("n", "new"),)
