"""Tests for the fault-arrival processes."""

from __future__ import annotations

import math
import random

import pytest

from repro.faultinj.campaign import PeriodicArrivals, PoissonArrivals


class TestPoissonArrivals:
    def test_zero_rate_yields_nothing(self):
        arrivals = PoissonArrivals(0.0, random.Random(1))
        assert list(arrivals.times(1000.0)) == []

    def test_times_within_horizon_and_sorted(self):
        arrivals = PoissonArrivals(0.1, random.Random(2))
        times = list(arrivals.times(1000.0))
        assert all(0 <= t < 1000.0 for t in times)
        assert times == sorted(times)

    def test_mean_count_close_to_rate_times_horizon(self):
        arrivals = PoissonArrivals(0.05, random.Random(3))
        counts = [len(list(arrivals.times(10000.0))) for _ in range(30)]
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(500, rel=0.15)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0, random.Random(0))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # NaN never reaches the horizon and inf draws zero gaps forever.
        with pytest.raises(ValueError):
            PoissonArrivals(rate, random.Random(0))


class TestPeriodicArrivals:
    def test_exact_count(self):
        times = list(PeriodicArrivals(3).times(300.0))
        assert len(times) == 3
        assert times == [50.0, 150.0, 250.0]

    def test_zero_count(self):
        assert list(PeriodicArrivals(0).times(100.0)) == []

    def test_offset_fraction(self):
        times = list(PeriodicArrivals(2, offset_fraction=0.0).times(100.0))
        assert times == [0.0, 50.0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PeriodicArrivals(-1)
        with pytest.raises(ValueError):
            PeriodicArrivals(1, offset_fraction=1.0)
