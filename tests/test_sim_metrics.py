"""Tests for counters, gauges and histograms."""

from __future__ import annotations

import pytest

from repro.sim.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_increment(self):
        counter = Counter("x")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g", initial=10)
        gauge.add(-3)
        assert gauge.value == 7
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").summary()

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(50)

    def test_single_sample(self):
        h = Histogram("h")
        h.observe(4.2)
        summary = h.summary()
        assert summary.count == 1
        assert summary.mean == pytest.approx(4.2)
        assert summary.stdev == 0.0
        assert summary.p50 == pytest.approx(4.2)

    def test_mean_and_stdev(self):
        h = Histogram("h")
        h.observe_many([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        summary = h.summary()
        assert summary.mean == pytest.approx(5.0)
        assert summary.stdev == pytest.approx(2.138, abs=1e-3)

    def test_percentiles_exact(self):
        h = Histogram("h")
        h.observe_many(range(1, 101))  # 1..100
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100
        assert h.percentile(50) == pytest.approx(50.5)

    def test_percentile_interpolation(self):
        h = Histogram("h")
        h.observe_many([10.0, 20.0])
        assert h.percentile(50) == pytest.approx(15.0)
        assert h.percentile(25) == pytest.approx(12.5)

    def test_percentile_bounds_checked(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_min_max(self):
        h = Histogram("h")
        h.observe_many([3.0, -1.0, 7.5])
        summary = h.summary()
        assert summary.minimum == -1.0
        assert summary.maximum == 7.5

    def test_p99_close_to_max_for_uniform(self):
        h = Histogram("h")
        h.observe_many(range(1000))
        assert h.percentile(99) == pytest.approx(989.01, abs=0.5)
