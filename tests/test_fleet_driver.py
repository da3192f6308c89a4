"""End-to-end fleet runs: determinism, failover availability, autoscaling."""

from __future__ import annotations

import math

import pytest

from repro.fleet import AutoscalerConfig, FleetRunConfig, HealthConfig, run_fleet

#: Availability floor the failover experiment must hold: with 4 shards and
#: a sub-second outage, in-band detection (3 consecutive failures) caps the
#: damage at a handful of requests out of thousands.
AVAILABILITY_FLOOR = 0.995

SMALL = dict(keyspace=5_000, rate=2_000.0, horizon=0.5, preload=300)


def small_config(**overrides):
    params = dict(SMALL, shards=4, seed=11)
    params.update(overrides)
    return FleetRunConfig(**params)


class TestBaselineRun:
    def test_healthy_run_serves_everything(self):
        report = run_fleet(small_config())
        assert report.availability == 1.0
        assert report.errors == 0
        assert report.ops > 500
        assert report.failovers == 0

    def test_percentiles_are_ordered_and_resolved(self):
        report = run_fleet(small_config())
        assert 0 < report.p50 <= report.p99 <= report.p999
        # The fine ladder must actually resolve the tail: p999 must not be
        # an entire decade above p99 on a healthy uncontended run.
        assert report.p999 < report.p99 * 10

    def test_ledger_reports_both_strategies(self):
        report = run_fleet(small_config())
        strategies = {entry["strategy"] for entry in report.ledger}
        assert strategies == {"sdrad-rewind", "process-restart"}
        for entry in report.ledger:
            assert entry["joules_per_request"] > 0
            assert entry["gco2e_per_request"] > 0
            assert entry["requests"] >= report.ops

    def test_scatter_batches_bounded_by_shards(self):
        report = run_fleet(small_config())
        # Scatter coalesces: never more sub-batches than multigets x shards,
        # and strictly fewer wire requests than keys (the whole point).
        assert report.scatter_batches <= report.multigets * 4
        assert report.scatter_batches < report.scatter_keys

    def test_run_is_deterministic(self):
        config = small_config(kill_at=0.2, outage=0.1)
        first = run_fleet(config).as_dict()
        second = run_fleet(config).as_dict()
        assert first == second

    def test_seed_changes_run(self):
        base = small_config()
        other = small_config()
        other.seed = 12
        assert run_fleet(base).ops != run_fleet(other).ops


class TestFailoverRun:
    def config(self):
        return small_config(
            rate=4_000.0,
            horizon=1.0,
            kill_at=0.3,
            kill_shard="shard-1",
            outage=0.2,
            health_config=HealthConfig(probe_interval=0.05),
        )

    def test_availability_floor_holds_through_outage(self):
        report = run_fleet(self.config())
        assert report.failovers == 1
        assert report.availability >= AVAILABILITY_FLOOR

    def test_recovered_shard_rejoins_and_restarts_once(self):
        report = run_fleet(self.config())
        assert report.rejoins == 1
        assert report.restarts == 1
        assert report.shards_final == 4

    def test_rebalance_is_minimal_and_deterministic(self):
        report = run_fleet(self.config())
        fleet = report.fleet
        # After rejoin the ring matches an untouched fleet with the same
        # seed: failover moved only the victim's ranges, rejoin restored
        # them, and the whole dance replays identically under the seed.
        from repro.fleet import Fleet

        probe = [b"probe:%06d" % i for i in range(2_000)]
        fresh = Fleet(4, seed=11)
        assert fleet.ring.assignment(probe) == fresh.ring.assignment(probe)
        again = run_fleet(self.config())
        assert again.as_dict() == report.as_dict()


class TestAutoscaleRun:
    def test_overload_scales_up(self):
        report = run_fleet(
            small_config(
                shards=1,
                rate=20_000.0,
                horizon=1.0,
                autoscale=True,
                autoscaler_config=AutoscalerConfig(cooldown=0.3),
            )
        )
        assert report.shards_final > 1
        assert report.autoscale_decisions
        assert all(delta == 1 for _, _, delta in report.autoscale_decisions)

    def test_light_load_does_not_scale(self):
        report = run_fleet(
            small_config(rate=500.0, autoscale=True)
        )
        # Light load with healthy latency: never a scale-up; draining the
        # over-provisioned fleet via the hysteresis path is fine.
        assert report.shards_final <= 4
        assert all(delta == -1 for _, _, delta in report.autoscale_decisions)
        assert report.availability == 1.0


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            FleetRunConfig(shards=0)
        with pytest.raises(ValueError):
            FleetRunConfig(rate=0.0)
        with pytest.raises(ValueError):
            FleetRunConfig(multiget_fraction=0.8, set_fraction=0.4)
        with pytest.raises(ValueError):
            FleetRunConfig(multiget_size=0)
        with pytest.raises(ValueError):
            FleetRunConfig(kill_at=0.1, outage=0.0)
        # A NaN/inf rate or horizon would make the arrival loop never end.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                FleetRunConfig(rate=bad)
            with pytest.raises(ValueError):
                FleetRunConfig(horizon=bad)

    def test_report_dict_round_trips_json(self):
        import json

        report = run_fleet(small_config(horizon=0.1))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ops"] == report.ops
        assert payload["ledger"][0]["strategy"] == "sdrad-rewind"
        assert report.format()
