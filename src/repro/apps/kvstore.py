"""A Memcached-like in-memory key-value store on the simulated memory.

The paper's flagship use case. Items live in a slab arena in *shared/root*
memory (outside every client domain) so that rewinding a compromised client
domain never touches the database — the separation SDRaD's Memcached
retrofit establishes. The store itself is trusted-side code; the *parsing*
of client input happens inside domains (see ``memcached_server``).

Item layout inside a slab chunk::

    +0   u16  key length
    +2   u16  flags
    +4   u32  value length
    +8   ...  key bytes
    +8+klen   value bytes

An LRU list provides Memcached's eviction policy when the slab arena fills.
"""

from __future__ import annotations

import re
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..errors import AllocationFailure, SdradError
from ..memory.slab import CHUNK_HEADER, SlabAllocator, default_size_classes
from ..sdrad.runtime import SdradRuntime

ITEM_HEADER = 8
MAX_KEY_LEN = 250  # memcached protocol limit

_ITEM_STRUCT = struct.Struct("<HHI")  # key length, flags, value length
#: Matches exactly the keys ``_validate_key`` accepts, in one C-level call.
_valid_key = re.compile(rb"[^ \r\n]{1,%d}" % MAX_KEY_LEN).fullmatch


@dataclass
class StoreStats:
    """Hit/miss/eviction counters (the ``stats`` command's core fields)."""

    gets: int = 0
    sets: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expired: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.gets if self.gets else 0.0


class KVStore:
    """Slab-backed key-value store with LRU eviction."""

    def __init__(
        self,
        runtime: SdradRuntime,
        arena_size: int = 4 * 1024 * 1024,
        slab_page_size: int = 64 * 1024,
    ) -> None:
        self.runtime = runtime
        base = runtime.map_shared_region(arena_size)
        # Size classes must fit the configured slab page (memcached caps its
        # largest class the same way).
        largest = min(16 * 1024, slab_page_size - CHUNK_HEADER)
        self.slabs = SlabAllocator(
            runtime.space,
            base,
            arena_size,
            chunk_sizes=default_size_classes(largest=largest),
            slab_page_size=slab_page_size,
        )
        # key -> payload address; ordered by recency (LRU at the front).
        self._index: "OrderedDict[bytes, int]" = OrderedDict()
        self.stats = StoreStats()
        # Compiled kernel window over the slab arena: item headers and
        # bodies are trusted-side reads, all within [base, base+arena_size).
        self._arena_base = base
        self._arena_size = arena_size
        self._plan = None

    def _arena_plan(self):
        plan = self._plan
        if plan is not None and plan.cell[0]:
            return plan
        cache = self.runtime.space.plans
        if cache is None:
            return None
        self._plan = cache.kernel_plan(self._arena_base, self._arena_size)
        return self._plan

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def set(self, key: bytes, value: bytes, flags: int = 0) -> None:
        """Store ``value`` under ``key``, evicting LRU items if needed.

        An item above the largest slab class raises ``AllocationFailure``
        before anything is freed or evicted: no eviction can make room.
        """
        self._validate_key(key)
        needed = ITEM_HEADER + len(key) + len(value)
        largest = self.slabs.chunk_sizes[-1]
        if needed > largest:
            raise AllocationFailure(
                f"object of {needed} bytes exceeds largest slab class ({largest})"
            )
        self.stats.sets += 1
        if key in self._index:
            self._free_item(key)
        addr = self._alloc_with_eviction(needed)
        header = _ITEM_STRUCT.pack(len(key), flags & 0xFFFF, len(value))
        plan = self._arena_plan()
        if plan is not None:
            plan.store(addr, header + key + value)
        else:
            self.runtime.space.raw_store(addr, header + key + value)
        self._index[key] = addr
        self.runtime.charge(self.runtime.cost.memcached_op)

    def get(self, key: bytes) -> Optional[tuple[bytes, int]]:
        """Return ``(value, flags)`` or ``None`` on miss. Only :meth:`set`,
        which validates, indexes a key, so only a miss checks it."""
        index = self._index
        addr = index.get(key)
        if addr is None and _valid_key(key) is None:
            self._validate_key(key)
        stats = self.stats
        stats.gets += 1
        runtime = self.runtime
        runtime.charge(runtime.cost.memcached_op)
        if addr is None:
            stats.misses += 1
            return None
        stats.hits += 1
        index.move_to_end(key)
        plan = self._plan
        if plan is None or not plan.cell[0]:
            return self._read_item(addr, key)  # (re)acquires the arena plan
        klen, flags, vlen = plan.unpack_from(_ITEM_STRUCT, addr)
        body = plan.load(addr + ITEM_HEADER, klen + vlen)
        if body[:klen] != key:
            raise SdradError("index/item key mismatch — store corrupted")
        return body[klen:], flags

    def get_many(
        self, keys: list[bytes]
    ) -> dict[bytes, tuple[bytes, int]]:
        """Batched ``get`` (the protocol's multi-key ``get k1 k2 ...``).

        Hit items are read with batched kernel-path loads instead of one
        round-trip per item; stats, LRU behaviour and the key check on a
        miss match per-key ``get``.
        """
        hits: list[tuple[bytes, int]] = []
        for key in keys:
            addr = self._index.get(key)
            if addr is None:
                self._validate_key(key)
                self.stats.gets += 1
                self.stats.misses += 1
            else:
                self.stats.gets += 1
                self.stats.hits += 1
                self._index.move_to_end(key)
                hits.append((key, addr))
        self.runtime.charge(len(keys) * self.runtime.cost.memcached_op)
        if not hits:
            return {}
        plan = self._arena_plan()
        if plan is not None:
            unpack = plan.unpack_from
            load = plan.load
            out = {}
            for key, addr in hits:
                klen, flags, vlen = unpack(_ITEM_STRUCT, addr)
                body = load(addr + ITEM_HEADER, klen + vlen)
                if body[:klen] != key:
                    raise SdradError("index/item key mismatch — store corrupted")
                out[key] = (body[klen:], flags)
            return out
        space = self.runtime.space
        headers = [
            _ITEM_STRUCT.unpack(raw)
            for raw in space.raw_load_many((addr, ITEM_HEADER) for _, addr in hits)
        ]
        bodies = space.raw_load_many(
            (addr + ITEM_HEADER, klen + vlen)
            for (_, addr), (klen, _, vlen) in zip(hits, headers)
        )
        out: dict[bytes, tuple[bytes, int]] = {}
        for (key, _), (klen, flags, _), body in zip(hits, headers, bodies):
            if body[:klen] != key:
                raise SdradError("index/item key mismatch — store corrupted")
            out[key] = (body[klen:], flags)
        return out

    def add(self, key: bytes, value: bytes, flags: int = 0) -> bool:
        """Store only if the key is absent (the ``add`` command)."""
        self._validate_key(key)
        self.runtime.charge(self.runtime.cost.memcached_op)
        if key in self._index:
            return False
        self.set(key, value, flags)
        return True

    def replace(self, key: bytes, value: bytes, flags: int = 0) -> bool:
        """Store only if the key exists (the ``replace`` command)."""
        self._validate_key(key)
        self.runtime.charge(self.runtime.cost.memcached_op)
        if key not in self._index:
            return False
        self.set(key, value, flags)
        return True

    def incr(self, key: bytes, delta: int) -> Optional[int]:
        """Increment a decimal-ASCII value (the ``incr``/``decr`` commands).

        Returns the new value, or ``None`` when the key is missing or not a
        number — memcached's exact semantics, including clamping decrements
        at zero.
        """
        self._validate_key(key)
        self.runtime.charge(self.runtime.cost.memcached_op)
        addr = self._index.get(key)
        if addr is None:
            return None
        value, flags = self._read_item(addr, key)
        try:
            current = int(value)
        except ValueError:
            return None
        if current < 0:
            return None
        new = max(0, current + delta)
        self.set(key, b"%d" % new, flags)
        return new

    def delete(self, key: bytes) -> bool:
        self._validate_key(key)
        self.stats.deletes += 1
        self.runtime.charge(self.runtime.cost.memcached_op)
        if key not in self._index:
            return False
        self._free_item(key)
        return True

    def flush_all(self) -> None:
        """Drop every item (the ``flush_all`` command)."""
        self.slabs.reset()
        self._index.clear()

    # ------------------------------------------------------------------
    # Introspection (drives E2's dataset-size axis)
    # ------------------------------------------------------------------

    @property
    def item_count(self) -> int:
        return len(self._index)

    def state_bytes(self) -> int:
        """Bytes of service state a restart would have to reload."""
        return self.slabs.resident_bytes()

    def contains(self, key: bytes) -> bool:
        return key in self._index

    def keys(self) -> list[bytes]:
        return list(self._index)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _validate_key(self, key: bytes) -> None:
        if _valid_key(key) is not None:
            return
        if not key:
            raise SdradError("empty key")
        if len(key) > MAX_KEY_LEN:
            raise SdradError(f"key exceeds protocol limit ({len(key)} > {MAX_KEY_LEN})")
        if b" " in key or b"\r" in key or b"\n" in key:
            raise SdradError("key contains protocol delimiters")

    def _alloc_with_eviction(self, needed: int) -> int:
        slabs = self.slabs
        class_id = slabs.class_for(needed)
        addr = slabs.take(class_id)
        # Evict the least recently used item and retry, unless the class has
        # no slab page: pages never move between classes, so no eviction
        # can give it a chunk.
        while addr is None and self._index and slabs.class_pages(class_id):
            self._free_item(next(iter(self._index)))
            self.stats.evictions += 1
            addr = slabs.take(class_id)
        # Nothing evictable helps: raise the arena-exhausted failure.
        return slabs.alloc(needed) if addr is None else addr

    def _free_item(self, key: bytes) -> None:
        addr = self._index.pop(key)
        self.slabs.free(addr)

    def _read_item(self, addr: int, key: bytes) -> tuple[bytes, int]:
        # One header decode plus one fused key+value read, both through the
        # compiled arena window — the hot path of every hit.
        plan = self._arena_plan()
        if plan is not None:
            klen, flags, vlen = plan.unpack_from(_ITEM_STRUCT, addr)
            body = plan.load(addr + ITEM_HEADER, klen + vlen)
        else:
            space = self.runtime.space
            header = space.raw_view(addr, ITEM_HEADER)
            klen, flags, vlen = _ITEM_STRUCT.unpack(header)
            body = space.raw_load(addr + ITEM_HEADER, klen + vlen)
        if body[:klen] != key:
            raise SdradError("index/item key mismatch — store corrupted")
        return body[klen:], flags
