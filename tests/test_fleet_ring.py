"""Consistent-hash ring invariants: determinism, minimal movement, balance."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import SdradError
from repro.fleet.balancer import Fleet
from repro.fleet.ring import DEFAULT_VNODES, HashRing

PROBE_KEYS = [b"user:%07d" % i for i in range(5_000)]


def ring_with(names, vnodes=DEFAULT_VNODES, seed=0):
    ring = HashRing(vnodes=vnodes, seed=seed)
    for name in names:
        ring.add_shard(name)
    return ring


class TestDeterminism:
    def test_same_seed_same_placement(self):
        a = ring_with(["s0", "s1", "s2", "s3"], seed=42)
        b = ring_with(["s0", "s1", "s2", "s3"], seed=42)
        assert a.assignment(PROBE_KEYS) == b.assignment(PROBE_KEYS)

    def test_placement_independent_of_add_order(self):
        a = ring_with(["s0", "s1", "s2", "s3"])
        b = ring_with(["s3", "s1", "s0", "s2"])
        assert a.assignment(PROBE_KEYS) == b.assignment(PROBE_KEYS)

    def test_different_seed_different_placement(self):
        a = ring_with(["s0", "s1", "s2", "s3"], seed=0)
        b = ring_with(["s0", "s1", "s2", "s3"], seed=1)
        assert a.assignment(PROBE_KEYS) != b.assignment(PROBE_KEYS)

    def test_placement_is_process_stable(self):
        # Pin a handful of assignments to literal values: placement may
        # never depend on Python's salted hash() or dict order, so these
        # must hold in every process, forever (or the ring broke compat).
        ring = ring_with(["s0", "s1", "s2", "s3"], seed=0)
        sample = {key: ring.shard_for(key) for key in PROBE_KEYS[:5]}
        assert sample == {
            b"user:0000000": "s2",
            b"user:0000001": "s2",
            b"user:0000002": "s0",
            b"user:0000003": "s1",
            b"user:0000004": "s2",
        }

    @pytest.mark.parametrize("seed", [0, 7])
    def test_placement_digest_is_pinned(self, seed):
        # The owners of 1,000 probe keys on an 8-shard ring, as one digest:
        # a change to the hash, its key or the point order moves it.
        ring = ring_with([f"shard-{i}" for i in range(8)], seed=seed)
        owners = "\n".join(ring.shard_for(key) for key in PROBE_KEYS[:1000])
        digest = hashlib.blake2b(owners.encode(), digest_size=16).hexdigest()
        assert digest == PLACEMENT_DIGESTS[seed]


#: ``seed`` -> digest of the owners of ``PROBE_KEYS[:1000]`` on 8 shards.
PLACEMENT_DIGESTS = {
    0: "fb9f4ddb96dbd1c52944c742427f8c60",
    7: "d1c73b49c5aae882e5e4e8c174e471bf",
}


class TestMinimalMovement:
    def test_remove_moves_only_removed_shards_keys(self):
        ring = ring_with(["s0", "s1", "s2", "s3"])
        before = ring.assignment(PROBE_KEYS)
        ring.remove_shard("s2")
        after = ring.assignment(PROBE_KEYS)
        for key in PROBE_KEYS:
            if before[key] != "s2":
                assert after[key] == before[key]
            else:
                assert after[key] != "s2"

    def test_rejoin_restores_exact_placement(self):
        ring = ring_with(["s0", "s1", "s2", "s3"])
        before = ring.assignment(PROBE_KEYS)
        ring.remove_shard("s2")
        ring.add_shard("s2")
        assert ring.assignment(PROBE_KEYS) == before

    def test_add_steals_only_from_survivors_proportionally(self):
        ring = ring_with(["s0", "s1", "s2"])
        before = ring.assignment(PROBE_KEYS)
        ring.add_shard("s3")
        after = ring.assignment(PROBE_KEYS)
        moved = [key for key in PROBE_KEYS if before[key] != after[key]]
        # Every moved key moved TO the new shard, never between survivors.
        assert moved
        assert all(after[key] == "s3" for key in moved)


class TestBalance:
    def test_shares_are_roughly_fair(self):
        names = [f"s{i}" for i in range(8)]
        ring = ring_with(names)
        shares = [ring.share_of(name, PROBE_KEYS) for name in names]
        assert sum(shares) == pytest.approx(1.0)
        # 64 vnodes bounds the spread; generous envelope to stay seed-robust.
        assert max(shares) < 2.5 * (1 / 8)
        assert min(shares) > 0.25 * (1 / 8)

    def test_plan_groups_and_preserves_order(self):
        ring = ring_with(["s0", "s1", "s2", "s3"])
        keys = PROBE_KEYS[:64]
        plan = ring.plan(keys)
        # Every key appears exactly once, on its owning shard, and each
        # shard's sub-list preserves the original request order.
        flattened = [key for sub in plan.values() for key in sub]
        assert sorted(flattened) == sorted(keys)
        for name, sub in plan.items():
            assert all(ring.shard_for(key) == name for key in sub)
            positions = [keys.index(key) for key in sub]
            assert positions == sorted(positions)

    def test_plan_keeps_duplicates(self):
        ring = ring_with(["s0", "s1"])
        plan = ring.plan([b"dup", b"dup", b"other"])
        owner = ring.shard_for(b"dup")
        assert plan[owner].count(b"dup") == 2


class TestValidation:
    def test_empty_ring_refuses_lookup(self):
        with pytest.raises(SdradError):
            HashRing().shard_for(b"key")

    def test_duplicate_shard_refused(self):
        ring = ring_with(["s0"])
        with pytest.raises(SdradError):
            ring.add_shard("s0")

    def test_remove_unknown_refused(self):
        with pytest.raises(SdradError):
            HashRing().remove_shard("ghost")

    def test_bad_config_refused(self):
        with pytest.raises(SdradError):
            HashRing(vnodes=0)
        with pytest.raises(SdradError):
            HashRing(seed=-1)

    def test_seed_past_64_bits_refused(self):
        # The seed keys blake2b as 8 bytes: a wider one must be refused
        # by name, not overflow inside the conversion.
        for seed in (2**64, 2**70):
            with pytest.raises(SdradError, match=str(seed)):
                HashRing(seed=seed)
        with pytest.raises(SdradError, match=str(2**64)):
            Fleet(1, seed=2**64)
        assert HashRing(seed=2**64 - 1).seed == 2**64 - 1

    def test_contains_and_len(self):
        ring = ring_with(["s0", "s1"])
        assert "s0" in ring and "ghost" not in ring
        assert len(ring) == 2
        assert ring.shards == ["s0", "s1"]
