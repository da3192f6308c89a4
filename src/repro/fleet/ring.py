"""Consistent-hash ring with virtual nodes: deterministic key placement.

The fleet's sharding layer. Each shard owns ``vnodes`` points on a 64-bit
ring; a key hashes to a point and is owned by the first shard point at or
clockwise of it. Two properties carry the whole design:

* **Determinism** — placement is a pure function of ``(seed, shard names,
  vnodes)``. Hashes come from ``blake2b`` keyed with the seed, never from
  Python's salted ``hash()``, so the same configuration yields the same
  placement in every process and on every run (tested). The ring keys one
  ``blake2b`` state at construction and copies it per hash, which gives
  the same positions as keying a fresh one for less work.
* **Minimal disruption** — removing a shard deletes only that shard's
  points; every key owned by a surviving shard keeps its owner, so a
  quarantine/failover moves exactly the failed shard's key ranges and
  nothing else (tested). The same holds in reverse when a shard rejoins.

Lookup is ``O(log(shards * vnodes))`` — a single ``bisect`` on the sorted
point array — which is what keeps the fleet front-end's routing cost flat
as the fleet scales (the ``bench_fleet`` scaling gate).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort

from ..errors import SdradError

#: Points per shard. 64 keeps the ring small (8 shards -> 512 points) while
#: bounding the largest shard's keyspace share within ~20% of fair.
DEFAULT_VNODES = 64


class HashRing:
    """Sorted-array consistent-hash ring over named shards."""

    def __init__(self, vnodes: int = DEFAULT_VNODES, seed: int = 0) -> None:
        if vnodes < 1:
            raise SdradError(f"ring needs at least one vnode, got {vnodes}")
        if not 0 <= seed < 1 << 64:
            raise SdradError(f"ring seed must be in [0, 2**64), got {seed}")
        self.vnodes = vnodes
        self.seed = seed
        # Keyed once; ``copy()`` then ``update(data)`` hashes ``data`` under
        # the seed exactly as ``blake2b(data, key=...)`` would.
        self._keyed = hashlib.blake2b(
            digest_size=8, key=seed.to_bytes(8, "little", signed=False)
        )
        # Parallel sorted arrays: point -> owning shard name. Collisions on
        # a 64-bit ring are vanishingly rare but must not corrupt the ring:
        # insertion refuses a duplicate point outright (deterministic, and
        # fixable by choosing a different seed).
        self._points: "list[int]" = []
        self._owners_by_point: "dict[int, str]" = {}
        self._shards: "dict[str, list[int]]" = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_shard(self, name: str) -> None:
        """Place ``name``'s vnodes; moves only ranges it now owns."""
        if name in self._shards:
            raise SdradError(f"shard {name!r} already on the ring")
        points = []
        for index in range(self.vnodes):
            state = self._keyed.copy()
            state.update(f"{name}#{index}".encode("utf-8"))
            point = int.from_bytes(state.digest(), "big")
            if point in self._owners_by_point:
                raise SdradError(
                    f"ring point collision for {name!r} vnode {index} — "
                    "choose a different ring seed"
                )
            points.append(point)
        # Commit only after every point cleared the collision check.
        for point in points:
            insort(self._points, point)
            self._owners_by_point[point] = name
        self._shards[name] = points

    def remove_shard(self, name: str) -> None:
        """Delete ``name``'s vnodes; every other assignment is untouched."""
        points = self._shards.pop(name, None)
        if points is None:
            raise SdradError(f"shard {name!r} is not on the ring")
        remove = set(points)
        self._points = [p for p in self._points if p not in remove]
        for point in points:
            del self._owners_by_point[point]

    @property
    def shards(self) -> "list[str]":
        return sorted(self._shards)

    def __contains__(self, name: str) -> bool:
        return name in self._shards

    def __len__(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def shard_for(self, key: bytes) -> str:
        """Owner of ``key``: first shard point clockwise of the key's hash."""
        points = self._points
        if not points:
            raise SdradError("ring is empty — no shard to own the key")
        state = self._keyed.copy()
        state.update(key)
        index = bisect_right(points, int.from_bytes(state.digest(), "big"))
        if index == len(points):
            index = 0  # wrap: the lowest point owns the top arc
        return self._owners_by_point[points[index]]

    def plan(self, keys: "list[bytes]") -> "dict[str, list[bytes]]":
        """Group ``keys`` by owning shard, preserving per-shard key order.

        The scatter plan for a multi-key get: one entry per shard that owns
        at least one key, in first-touched order. Duplicate keys stay
        duplicated (they hash identically, so they land on the same shard).
        """
        out: "dict[str, list[bytes]]" = {}
        shard_for = self.shard_for
        for key in keys:
            out.setdefault(shard_for(key), []).append(key)
        return out

    def assignment(self, keys: "list[bytes]") -> "dict[bytes, str]":
        """Key -> owner map for a probe keyset (rebalance tests/metrics)."""
        return {key: self.shard_for(key) for key in keys}

    def share_of(self, name: str, probe_keys: "list[bytes]") -> float:
        """Fraction of ``probe_keys`` owned by ``name`` (balance checks)."""
        if name not in self._shards:
            raise SdradError(f"shard {name!r} is not on the ring")
        if not probe_keys:
            return 0.0
        owned = sum(1 for key in probe_keys if self.shard_for(key) == name)
        return owned / len(probe_keys)
