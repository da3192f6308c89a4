"""Fleet front-end: scatter-gather identity, routing, failover, scaling."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.errors import SdradError
from repro.fleet import (
    Autoscaler,
    AutoscalerConfig,
    Fleet,
    HealthConfig,
    HealthMonitor,
)
from repro.obs.exporters import prometheus_text, spans_to_jsonl
from repro.obs.hub import Observability
from repro.sdrad import telemetry

ITEMS = [(b"item:%05d" % i, b"payload-%d-" % i + b"x" * (i % 50)) for i in range(400)]
KEYS = [key for key, _ in ITEMS]


def loaded_fleet(shards, **kwargs):
    fleet = Fleet(shards, seed=7, **kwargs)
    assert fleet.set_many(list(ITEMS)) == len(ITEMS)
    return fleet


class TestScatterGather:
    def test_multiget_bit_identical_to_single_shard(self):
        single = loaded_fleet(1)
        sharded = loaded_fleet(8)
        probes = [
            KEYS[:20],
            [KEYS[399], KEYS[0], KEYS[211], KEYS[42]],
            [KEYS[5], b"missing-key", KEYS[9]],
            [b"all", b"misses", b"here"],
            [KEYS[17]],
        ]
        for keys in probes:
            assert sharded.multiget(list(keys)) == single.multiget(list(keys))

    def test_multiget_response_shape(self):
        fleet = loaded_fleet(4)
        keys = [KEYS[3], b"nope", KEYS[7]]
        response = fleet.multiget(keys)
        assert response.endswith(b"END\r\n")
        assert b"VALUE item:00003 " in response
        assert b"VALUE item:00007 " in response
        assert b"nope" not in response
        # Values come back in requested order.
        assert response.index(b"item:00003") < response.index(b"item:00007")

    def test_duplicate_keys_served_consistently(self):
        single = loaded_fleet(1)
        sharded = loaded_fleet(8)
        keys = [KEYS[1], KEYS[1], KEYS[2]]
        assert sharded.multiget(list(keys)) == single.multiget(list(keys))

    def test_one_scatter_batch_per_owning_shard(self):
        fleet = loaded_fleet(8)
        fleet.multiget(KEYS[:64])
        plan = fleet.ring.plan(KEYS[:64])
        assert fleet.metrics.scatter_batches == len(plan)
        assert fleet.metrics.scatter_keys == 64
        assert fleet.metrics.multigets == 1

    def test_empty_multiget_rejected(self):
        with pytest.raises(SdradError):
            Fleet(2).multiget([])


class TestMultigetWave:
    """Coalesced wave dispatch: one handle_batch per shard per wave."""

    PROBES = [
        KEYS[:20],
        [KEYS[399], KEYS[0], KEYS[211], KEYS[42]],
        [KEYS[5], b"missing-key", KEYS[9]],
        [b"all", b"misses", b"here"],
        [KEYS[17]],
        [KEYS[1], KEYS[1], KEYS[2]],
    ]

    def test_wave_bit_identical_to_sequential_single_shard(self):
        single = loaded_fleet(1)
        expected = [single.multiget(list(keys)) for keys in self.PROBES]
        for shards in (1, 8):
            fleet = loaded_fleet(shards)
            batches = [list(keys) for keys in self.PROBES]
            assert fleet.multiget_wave(batches) == expected

    def test_wave_matches_one_at_a_time_multiget(self):
        fleet = loaded_fleet(8)
        sequential = [fleet.multiget(list(keys)) for keys in self.PROBES]
        assert fleet.multiget_wave([list(k) for k in self.PROBES]) == sequential

    def test_one_activation_pipeline_per_shard(self):
        fleet = loaded_fleet(8)
        fleet.multiget_wave([KEYS[:32], KEYS[32:64], KEYS[64:96]])
        # One handle_batch call per shard touched -> one service entry per
        # shard, no matter how many multigets the wave carried.
        names = [name for name, _ in fleet.last_op_services]
        assert len(names) == len(set(names))
        assert fleet.metrics.multigets == 3
        assert fleet.metrics.scatter_keys == 96

    def test_wave_down_shard_degrades_to_misses(self):
        single = loaded_fleet(1)
        fleet = loaded_fleet(8)
        victim = fleet.ring.shard_for(KEYS[0])
        fleet.shards[victim].kill(10.0)
        batches = [list(KEYS[:24]), list(KEYS[24:48])]
        expected = [
            single.multiget(
                [k for k in keys if fleet.ring.shard_for(k) != victim]
            )
            for keys in batches
        ]
        assert fleet.multiget_wave([list(b) for b in batches]) == expected
        # Both multigets touched the dead shard, so both count as errors.
        assert fleet.metrics.errors == 2
        assert victim in fleet.last_op_failed

    def test_empty_wave_and_empty_batch(self):
        fleet = loaded_fleet(2)
        assert fleet.multiget_wave([]) == []
        with pytest.raises(SdradError):
            fleet.multiget_wave([[KEYS[0]], []])

    def test_route_cache_invalidated_by_failover(self):
        fleet = loaded_fleet(4)
        victim = fleet.ring.shard_for(KEYS[0])
        fleet.get(KEYS[0])  # warm the route cache through the old owner
        fleet.fail_over(victim)
        new_owner = fleet.ring.shard_for(KEYS[0])
        assert new_owner != victim
        before = fleet.metrics.per_shard_ops.get(new_owner, 0)
        fleet.get(KEYS[0])
        assert fleet.metrics.per_shard_ops[new_owner] == before + 1


class TestSingleKeyRouting:
    def test_set_get_delete_roundtrip(self):
        fleet = Fleet(4, seed=7)
        assert fleet.set(b"alpha", b"one") == b"STORED\r\n"
        assert fleet.get(b"alpha") == b"VALUE alpha 0 3\r\none\r\nEND\r\n"
        assert fleet.delete(b"alpha") == b"DELETED\r\n"
        assert fleet.get(b"alpha") == b"END\r\n"

    def test_ops_land_on_ring_owner(self):
        fleet = loaded_fleet(8)
        for key in KEYS[:32]:
            owner = fleet.ring.shard_for(key)
            before = fleet.metrics.per_shard_ops.get(owner, 0)
            fleet.get(key)
            assert fleet.metrics.per_shard_ops[owner] == before + 1

    def test_data_partitioned_not_replicated(self):
        fleet = loaded_fleet(8)
        assert fleet.total_items() == len(ITEMS)
        per_shard = [shard.store.item_count for shard in fleet.shards.values()]
        assert sum(1 for n in per_shard if n > 0) >= 6

    def test_availability_tracks_served_fraction(self):
        fleet = loaded_fleet(2)
        for key in KEYS[:10]:
            fleet.get(key)
        assert fleet.availability() == 1.0


class TestRouteCacheBound:
    """The route cache (key -> owning shard) has an explicit bound that both
    of its fills honour: the single-key path and the multiget planner."""

    BOUND = 8

    def _fleet(self):
        fleet = Fleet(4, seed=7)
        fleet._route_cache_max = self.BOUND
        return fleet

    def _assert_bounded_and_correct(self, fleet):
        cache = fleet._route_cache
        assert len(cache) <= self.BOUND
        for key, name in cache.items():
            assert name == fleet.ring.shard_for(key)

    def test_single_key_path_stays_bounded(self):
        fleet = self._fleet()
        sizes = []
        for key, value in ITEMS[:40]:
            assert fleet.set(key, value) == b"STORED\r\n"
            sizes.append(len(fleet._route_cache))
            self._assert_bounded_and_correct(fleet)
        assert max(sizes) == self.BOUND  # the bound is reached, then held
        for key, value in ITEMS[:40]:
            owner = fleet.ring.shard_for(key)
            before = fleet.metrics.per_shard_ops.get(owner, 0)
            assert fleet.get(key) == b"VALUE %s 0 %d\r\n%s\r\nEND\r\n" % (
                key, len(value), value
            )
            assert fleet.metrics.per_shard_ops[owner] == before + 1
            assert fleet.delete(key) == b"DELETED\r\n"
            self._assert_bounded_and_correct(fleet)

    def test_multiget_planner_stays_bounded(self):
        fleet = self._fleet()
        reference = loaded_fleet(4)
        assert fleet.set_many(list(ITEMS)) == len(ITEMS)
        self._assert_bounded_and_correct(fleet)
        fleet._route_cache.clear()
        keys = KEYS[: self.BOUND]
        assert fleet.multiget(keys) == reference.multiget(keys)
        assert len(fleet._route_cache) == self.BOUND  # reached
        for start in range(0, 120, 30):
            keys = KEYS[start : start + 30]
            assert fleet.multiget(keys) == reference.multiget(keys)
            self._assert_bounded_and_correct(fleet)
        plan = fleet._plan(KEYS[:50], KEYS[:50])
        assert sorted(key for bucket in plan.values() for key in bucket) == KEYS[:50]
        for name, bucket in plan.items():
            assert all(fleet.ring.shard_for(key) == name for key in bucket)
        self._assert_bounded_and_correct(fleet)


class TestFailover:
    def test_dead_shard_fails_out_after_threshold(self):
        fleet = loaded_fleet(4)
        HealthMonitor(fleet, HealthConfig(failure_threshold=3))
        victim = fleet.ring.shard_for(KEYS[0])
        fleet.shards[victim].kill(10.0)
        misses = 0
        for key in KEYS:
            if fleet.ring.shard_for(key) == victim:
                fleet.get(key)
                misses += 1
            if victim not in fleet.ring:
                break
        assert victim not in fleet.ring
        assert misses == 3
        assert fleet.metrics.failovers == 1

    def test_failover_moves_only_victims_ranges(self):
        fleet = loaded_fleet(4)
        before = fleet.ring.assignment(KEYS)
        victim = fleet.ring.shard_for(KEYS[0])
        fleet.fail_over(victim)
        after = fleet.ring.assignment(KEYS)
        for key in KEYS:
            if before[key] != victim:
                assert after[key] == before[key]
            else:
                assert after[key] != victim

    def test_surviving_shards_keep_serving_after_failover(self):
        fleet = loaded_fleet(4)
        victim = fleet.ring.shard_for(KEYS[0])
        survivors_keys = [k for k in KEYS if fleet.ring.shard_for(k) != victim]
        fleet.shards[victim].kill(10.0)
        fleet.fail_over(victim)
        for key in survivors_keys[:50]:
            response = fleet.get(key)
            assert response.startswith(b"VALUE "), key

    def test_probe_rejoins_recovered_shard(self):
        fleet = loaded_fleet(4)
        monitor = HealthMonitor(fleet, HealthConfig(probe_interval=0.1))
        victim = "shard-2"
        fleet.shards[victim].kill(1.0)
        monitor.tick(0.2)
        assert victim not in fleet.ring
        fleet.clock.advance(2.0)  # outage elapses; supervisor restarts
        monitor.tick(0.4)
        assert victim in fleet.ring
        assert fleet.metrics.rejoins == 1
        assert fleet.shards[victim].restarts == 1
        # Rejoin restores the exact pre-failover placement.
        fresh = Fleet(4, seed=7)
        assert fleet.ring.assignment(KEYS) == fresh.ring.assignment(KEYS)

    def test_watchdog_quarantine_fails_shard_out(self):
        # Repeated faults on one shard's fleet connection trip the
        # shard-side watchdog; the probe sweep then fails the shard out.
        fleet = Fleet(2, seed=7)
        monitor = HealthMonitor(fleet)
        shard = fleet.shards["shard-0"]
        for _ in range(6):
            shard.watchdog.record_fault("lb")
        assert shard.is_quarantined
        monitor.tick(1.0)
        assert "shard-0" not in fleet.ring
        assert "shard-1" in fleet.ring

    def test_down_shard_keys_degrade_to_misses_in_multiget(self):
        single = loaded_fleet(1)
        fleet = loaded_fleet(8)
        victim = fleet.ring.shard_for(KEYS[0])
        fleet.shards[victim].kill(10.0)
        keys = KEYS[:40]
        expected_hits = [
            k for k in keys if fleet.ring.shard_for(k) != victim
        ]
        response = fleet.multiget(list(keys))
        assert response == single.multiget(list(expected_hits))
        assert fleet.metrics.errors == 1


class TestScaling:
    def test_add_shard_extends_ring(self):
        fleet = Fleet(2, seed=7)
        shard = fleet.add_shard()
        assert shard.name == "shard-2"
        assert len(fleet.ring) == 3

    def test_drain_removes_newest_never_last(self):
        fleet = Fleet(3, seed=7)
        assert fleet.drain_shard() == "shard-2"
        assert fleet.drain_shard() == "shard-1"
        assert fleet.drain_shard() is None
        assert fleet.ring.shards == ["shard-0"]

    def test_autoscaler_demand_sizing(self):
        scaler = Autoscaler(AutoscalerConfig(utilization_target=0.5))
        # 1000 req/s x 1 ms = 1 busy shard-second/s -> 2 shards at 50%.
        assert scaler.required_shards(1000.0, 1e-3) == 2
        assert scaler.required_shards(0.0, 1e-3) == 1

    def test_autoscaler_slo_breach_scales_up(self):
        scaler = Autoscaler(AutoscalerConfig(target_p99=1e-4, cooldown=0.0))
        assert scaler.evaluate(1.0, 2, 100.0, 1e-5, window_p99=5e-4) == 1

    def test_autoscaler_hysteresis_and_cooldown(self):
        cfg = AutoscalerConfig(target_p99=1e-3, cooldown=5.0)
        scaler = Autoscaler(cfg)
        # Over-provisioned and far under SLO: scale down.
        assert scaler.evaluate(10.0, 4, 10.0, 1e-5, window_p99=1e-5) == -1
        # Cooldown gates the next action.
        assert scaler.evaluate(11.0, 3, 10.0, 1e-5, window_p99=1e-5) == 0
        # Barely over-provisioned (required == count - 1): hold.
        assert scaler.evaluate(20.0, 2, 10.0, 1e-5, window_p99=1e-5) == 0

    def test_validation(self):
        with pytest.raises(SdradError):
            Fleet(0)
        with pytest.raises(ValueError):
            AutoscalerConfig(target_p99=0.0)
        with pytest.raises(ValueError):
            HealthConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            Fleet(1).shards["shard-0"].kill(0.0)


class TestObservability:
    def test_fleet_metrics_flow_to_registry(self):
        obs = Observability()
        fleet = Fleet(2, seed=7, obs=obs)
        HealthMonitor(fleet)
        fleet.set(b"k", b"v")
        fleet.get(b"k")
        fleet.fail_over("shard-1")
        fleet.rejoin("shard-1")
        registry = obs.registry
        assert registry.counter_total("app_requests_total") == 2
        assert registry.counter_total("fleet_failovers_total") == 1
        assert registry.counter_total("fleet_rejoins_total") == 1
        assert registry.gauge_value("fleet_shards") == 2


# ----------------------------------------------------------------------
# Pinned script: every effect of a seeded mixed run, as one digest
# ----------------------------------------------------------------------

SCRIPT_KEYS = [b"pin:%04d" % i for i in range(160)]


def _scripted_fleet_digest(span_capacity):
    """Serve a fixed seeded script on an 8-shard fleet with obs on.

    The script mixes single gets and sets with 8-key multigets, kills a
    shard whose restart is first seen by a routed request (no probe runs
    in between), then kills a second shard until the front-end fails it
    over and a probe rejoins it. Returns the digest of every response,
    every ``last_op_services`` and ``last_op_failed``, the fleet metrics,
    each shard's telemetry snapshot, the Prometheus text, the span JSONL
    and the dropped-span count, and that count itself.
    """
    obs = Observability(span_capacity=span_capacity)
    fleet = Fleet(8, seed=7, obs=obs)
    monitor = HealthMonitor(fleet, HealthConfig(probe_interval=0.1))
    rng = random.Random(2023)
    digest = hashlib.blake2b(digest_size=16)

    def record(response):
        digest.update(response)
        digest.update(repr((fleet.last_op_services, fleet.last_op_failed)).encode())

    def mixed(ops):
        for _ in range(ops):
            draw = rng.random()
            if draw < 0.3:
                key = rng.choice(SCRIPT_KEYS)
                record(fleet.set(key, b"v%d-" % rng.randrange(1000) + key))
            elif draw < 0.8:
                record(fleet.get(rng.choice(SCRIPT_KEYS)))
            else:
                record(fleet.multiget(rng.sample(SCRIPT_KEYS, 8)))

    def owned_by(name):
        return [key for key in SCRIPT_KEYS if fleet.ring.shard_for(key) == name]

    monitor.tick(fleet.clock.now)
    mixed(150)
    # A kill below the failure threshold: the shard stays on the ring and
    # the routed request after the outage restarts it (an empty cache).
    first = fleet.ring.shard_for(SCRIPT_KEYS[0])
    fleet.shards[first].kill(0.05)
    for key in owned_by(first)[:2]:
        record(fleet.get(key))
    fleet.clock.advance(0.06)
    record(fleet.get(owned_by(first)[0]))
    mixed(60)
    # A kill the front-end fails over, then a probe that rejoins it.
    second = next(
        fleet.ring.shard_for(key)
        for key in SCRIPT_KEYS
        if fleet.ring.shard_for(key) != first
    )
    fleet.shards[second].kill(0.05)
    record(fleet.multiget(SCRIPT_KEYS[:8]))
    for key in owned_by(second):
        if second not in fleet.ring:
            break
        record(fleet.get(key))
    mixed(60)
    fleet.clock.advance(0.06)
    monitor.tick(fleet.clock.now)
    mixed(80)

    digest.update(repr(dataclasses.asdict(fleet.metrics)).encode())
    for name in sorted(fleet.shards):
        digest.update(repr(telemetry.snapshot(fleet.shards[name].runtime)).encode())
    digest.update(prometheus_text(obs.registry).encode())
    digest.update(spans_to_jsonl(obs.buffer).encode())
    digest.update(repr(obs.buffer.dropped).encode())
    return digest.hexdigest(), obs.buffer.dropped


class TestPinnedScript:
    #: ``span_capacity`` -> (digest, dropped spans). The script makes 1,336
    #: spans: the default capacity keeps them all, and 668 fills the store
    #: halfway through, so the later half runs with the store full.
    PINNED = {
        100_000: ("03e92e48e2f4ca4aefb6f2fa23e782f2", 0),
        668: ("d1f08342587e76aab6f67b5c5bde26ef", 668),
    }

    @pytest.mark.parametrize("span_capacity", sorted(PINNED))
    def test_scripted_fleet_outputs_pinned(self, span_capacity):
        assert _scripted_fleet_digest(span_capacity) == self.PINNED[span_capacity]
