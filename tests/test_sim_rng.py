"""Tests for deterministic RNG streams and the Zipf sampler."""

from __future__ import annotations

import math
import random

import pytest

from repro.sim.rng import RngFactory, ZipfSampler, zipf_weights


class TestRngFactory:
    def test_same_label_same_stream(self):
        a = RngFactory(7).stream("faults")
        b = RngFactory(7).stream("faults")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_labels_differ(self):
        factory = RngFactory(7)
        a = factory.stream("faults")
        b = factory.stream("keys")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x")
        b = RngFactory(2).stream("x")
        assert a.random() != b.random()

    def test_child_factories_are_independent(self):
        root = RngFactory(3)
        child_a = root.child("a").stream("s")
        child_b = root.child("b").stream("s")
        assert child_a.random() != child_b.random()

    def test_child_is_deterministic(self):
        a = RngFactory(3).child("x").stream("s").random()
        b = RngFactory(3).child("x").stream("s").random()
        assert a == b

    def test_stream_order_does_not_matter(self):
        f1 = RngFactory(9)
        f1.stream("a")
        x = f1.stream("b").random()
        f2 = RngFactory(9)
        y = f2.stream("b").random()
        assert x == y


class TestZipfWeights:
    def test_normalised(self):
        weights = zipf_weights(100, 0.99)
        assert sum(weights) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, 1.2)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zero_skew_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert all(w == pytest.approx(0.1) for w in weights)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -0.5)

    def test_first_rank_dominates_with_high_skew(self):
        weights = zipf_weights(1000, 1.5)
        assert weights[0] > 0.35


class TestZipfSampler:
    def test_samples_within_range(self):
        sampler = ZipfSampler(20, 0.99, random.Random(1))
        for value in sampler.samples(500):
            assert 0 <= value < 20

    def test_skew_concentrates_on_low_ranks(self):
        sampler = ZipfSampler(1000, 0.99, random.Random(2))
        draws = list(sampler.samples(20000))
        top10 = sum(1 for d in draws if d < 10) / len(draws)
        assert top10 > 0.25  # uniform would give 1 %

    def test_matches_theoretical_head_mass(self):
        n, skew = 100, 1.0
        sampler = ZipfSampler(n, skew, random.Random(3))
        draws = list(sampler.samples(50000))
        empirical_rank0 = draws.count(0) / len(draws)
        theoretical = zipf_weights(n, skew)[0]
        assert empirical_rank0 == pytest.approx(theoretical, rel=0.1)

    def test_deterministic_given_seed(self):
        a = list(ZipfSampler(50, 0.8, random.Random(7)).samples(100))
        b = list(ZipfSampler(50, 0.8, random.Random(7)).samples(100))
        assert a == b

    def test_uniform_when_skew_zero(self):
        sampler = ZipfSampler(10, 0.0, random.Random(11))
        draws = list(sampler.samples(50000))
        for rank in range(10):
            frequency = draws.count(rank) / len(draws)
            assert frequency == pytest.approx(0.1, abs=0.02)

    def test_chi_square_against_weights(self):
        n, skew, draws_n = 30, 0.9, 30000
        sampler = ZipfSampler(n, skew, random.Random(13))
        weights = zipf_weights(n, skew)
        counts = [0] * n
        for d in sampler.samples(draws_n):
            counts[d] += 1
        chi2 = sum(
            (counts[i] - draws_n * weights[i]) ** 2 / (draws_n * weights[i])
            for i in range(n)
        )
        # 29 dof: 99.9th percentile ~ 58; generous bound to stay stable
        assert chi2 < 80, f"chi-square too high: {chi2}"
        assert math.isfinite(chi2)
