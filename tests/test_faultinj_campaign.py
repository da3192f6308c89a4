"""Tests for fault-arrival processes and campaigns."""

from __future__ import annotations

import math
import random

import pytest

from repro.faultinj.campaign import (
    DEFAULT_FAULT_MIX,
    BurstArrivals,
    Campaign,
    PeriodicArrivals,
    PoissonArrivals,
)
from repro.faultinj.models import FaultKind
from repro.sim.rng import RngFactory


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


class TestBurstArrivals:
    def test_bursts_are_clustered(self):
        arrivals = BurstArrivals(
            burst_rate=0.001, burst_size=5, gap=1.0, rng=random.Random(4)
        )
        times = list(arrivals.times(100000.0))
        assert len(times) % 5 == 0 or times  # whole bursts unless truncated
        # within one burst, spacing is exactly the gap
        if len(times) >= 5:
            burst = times[:5]
            gaps = [b - a for a, b in zip(burst, burst[1:])]
            assert all(g == pytest.approx(1.0) for g in gaps)

    def test_all_within_horizon(self):
        arrivals = BurstArrivals(0.01, 3, 0.5, random.Random(5))
        assert all(t < 500.0 for t in arrivals.times(500.0))

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            BurstArrivals(-1, 1, 0, rng)
        with pytest.raises(ValueError):
            BurstArrivals(1, 0, 0, rng)
        with pytest.raises(ValueError):
            BurstArrivals(1, 1, -1, rng)
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError):
                BurstArrivals(rate, 1, 0, rng)


class TestCampaign:
    def test_plan_is_sorted_and_typed(self):
        campaign = Campaign(
            PeriodicArrivals(10),
            kinds=[FaultKind.STACK_SMASH, FaultKind.HEAP_OVERFLOW],
            rng_factory=RngFactory(1),
        )
        plans = campaign.plan(1000.0)
        assert len(plans) == 10
        assert [p.timestamp for p in plans] == sorted(p.timestamp for p in plans)
        assert all(p.kind in (FaultKind.STACK_SMASH, FaultKind.HEAP_OVERFLOW) for p in plans)

    def test_weighted_mix_respected(self):
        kinds, weights = zip(*DEFAULT_FAULT_MIX)
        campaign = Campaign(
            PeriodicArrivals(5000),
            kinds=list(kinds),
            weights=list(weights),
            rng_factory=RngFactory(2),
        )
        plans = campaign.plan(1e6)
        overflow_share = sum(
            1 for p in plans if p.kind is FaultKind.HEAP_OVERFLOW
        ) / len(plans)
        assert overflow_share == pytest.approx(0.35, abs=0.05)

    def test_deterministic_given_factory_seed(self):
        def build():
            return Campaign(
                PeriodicArrivals(20),
                kinds=list(FaultKind),
                rng_factory=RngFactory(7),
            ).plan(100.0)

        assert build() == build()

    def test_validation(self):
        with pytest.raises(ValueError):
            Campaign(PeriodicArrivals(1), kinds=[])
        with pytest.raises(ValueError):
            Campaign(PeriodicArrivals(1), kinds=[FaultKind.STACK_SMASH], weights=[1, 2])
        campaign = Campaign(PeriodicArrivals(1), kinds=[FaultKind.STACK_SMASH])
        with pytest.raises(ValueError):
            campaign.plan(0.0)
        with pytest.raises(ValueError):
            campaign.plan(float("inf"))

    def test_default_mix_sums_to_one(self):
        assert sum(w for _, w in DEFAULT_FAULT_MIX) == pytest.approx(1.0)
