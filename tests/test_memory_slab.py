"""Tests for the Memcached-style slab allocator.

Besides unit tests, two checks hold the allocator's bookkeeping to its
design: a differential test drives it and the dict/list allocator it
replaced (kept below as the reference) through random operation sequences
and compares every observable, and a memory bound caps the Python-side
bytes the bookkeeping keeps for a store of 20k items.
"""

from __future__ import annotations

import random
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import KVStore
from repro.errors import AllocationFailure, HeapCorruption, InvalidFree, SdradError
from repro.memory import slab as slab_module
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.memory.slab import (
    CHUNK_HEADER,
    CHUNK_MAGIC,
    SlabAllocator,
    SlabClassStats,
    default_size_classes,
)
from repro.sdrad.runtime import SdradRuntime

ARENA = 1024 * 1024


@pytest.fixture
def space() -> AddressSpace:
    s = AddressSpace(size=2 * ARENA)
    s.page_table.map_range(0, 2 * ARENA, pkey=0)
    return s


@pytest.fixture
def slabs(space: AddressSpace) -> SlabAllocator:
    return SlabAllocator(space, 0, ARENA)


class TestSizeClasses:
    def test_default_ladder_is_geometric(self):
        classes = default_size_classes(64, 16 * 1024, 1.25)
        assert classes[0] == 64
        assert classes[-1] == 16 * 1024
        for small, large in zip(classes, classes[1:]):
            assert large > small

    def test_rejects_degenerate_growth(self):
        with pytest.raises(SdradError):
            default_size_classes(growth=1.0)

    def test_rejects_tiny_smallest(self):
        with pytest.raises(SdradError):
            default_size_classes(smallest=4)

    def test_class_for_picks_smallest_fitting(self, slabs: SlabAllocator):
        class_id = slabs.class_for(65)
        assert slabs.chunk_sizes[class_id] >= 65
        if class_id > 0:
            assert slabs.chunk_sizes[class_id - 1] < 65

    def test_oversized_object_rejected(self, slabs: SlabAllocator):
        with pytest.raises(AllocationFailure):
            slabs.class_for(slabs.chunk_sizes[-1] + 1)

    def test_class_for_matches_linear_scan(self, slabs: SlabAllocator):
        """Every size in 1..largest+1 gets the class the linear scan gave."""
        sizes = slabs.chunk_sizes
        for nbytes in range(1, sizes[-1] + 1):
            expected = next(i for i, size in enumerate(sizes) if size >= nbytes)
            assert slabs.class_for(nbytes) == expected
        with pytest.raises(AllocationFailure, match="exceeds largest slab class"):
            slabs.class_for(sizes[-1] + 1)

    def test_largest_class_must_fit_slab_page(self, space):
        with pytest.raises(SdradError):
            SlabAllocator(space, 0, ARENA, chunk_sizes=[128 * 1024], slab_page_size=64 * 1024)


class TestAllocFree:
    def test_roundtrip(self, slabs: SlabAllocator, space):
        addr = slabs.alloc(100)
        space.store(addr, b"v" * 100)
        assert space.load(addr, 100) == b"v" * 100

    def test_capacity_meets_request(self, slabs: SlabAllocator):
        addr = slabs.alloc(100)
        assert slabs.chunk_capacity(addr) >= 100

    def test_free_recycles_chunk(self, slabs: SlabAllocator):
        addr = slabs.alloc(100)
        slabs.free(addr)
        again = slabs.alloc(100)
        assert again == addr

    def test_double_free_detected(self, slabs: SlabAllocator):
        addr = slabs.alloc(64)
        slabs.free(addr)
        with pytest.raises(InvalidFree):
            slabs.free(addr)

    def test_wild_free_detected(self, slabs: SlabAllocator):
        with pytest.raises(InvalidFree):
            slabs.free(99999)

    def test_free_in_page_slack_is_wild(self, space):
        """Just past a page's last chunk lies slack, not the next page's
        first chunk, even when both pages are full of live chunks."""
        slabs = SlabAllocator(space, 0, 4 * 256, chunk_sizes=[40], slab_page_size=256)
        live = [slabs.alloc(40) for _ in range(10)]  # two full pages of 5
        past_last = max(a for a in live if a < 256) + 48
        assert past_last - CHUNK_HEADER == 5 * 48 < 256
        with pytest.raises(InvalidFree, match="not a live slab chunk"):
            slabs.free(past_last)
        with pytest.raises(InvalidFree, match="not a live slab chunk"):
            slabs.chunk_capacity(past_last)

    def test_free_outside_the_arena_is_wild(self, space):
        """No address below or above a full arena names one of its chunks."""
        base, size = 4096, 2 * 256
        slabs = SlabAllocator(space, base, size, chunk_sizes=[40], slab_page_size=256)
        live = [slabs.alloc(40) for _ in range(10)]
        for addr in [*range(base - 2 * size, base + CHUNK_HEADER), *range(
            base + size + CHUNK_HEADER, base + 3 * size
        )]:
            with pytest.raises(InvalidFree, match="not a live slab chunk"):
                slabs.free(addr)
        assert slabs.live_chunks == len(live)

    def test_zero_size_rejected(self, slabs: SlabAllocator):
        with pytest.raises(SdradError):
            slabs.alloc(0)

    def test_live_chunk_count(self, slabs: SlabAllocator):
        addrs = [slabs.alloc(64) for _ in range(5)]
        assert slabs.live_chunks == 5
        slabs.free(addrs[0])
        assert slabs.live_chunks == 4

    def test_arena_exhaustion(self, space):
        small = SlabAllocator(space, 0, 128 * 1024, slab_page_size=64 * 1024)
        with pytest.raises(AllocationFailure):
            for _ in range(10000):
                small.alloc(1024)


class TestCorruption:
    def test_smashed_chunk_header_detected(self, slabs: SlabAllocator, space):
        a = slabs.alloc(64)
        b = slabs.alloc(64)
        # chunks in the same class are adjacent: overflowing the lower one
        # reaches the higher one's header
        lower, higher = min(a, b), max(a, b)
        capacity = slabs.chunk_capacity(lower)
        assert higher == lower + capacity + CHUNK_HEADER
        space.store(lower, b"X" * (capacity + CHUNK_HEADER))
        with pytest.raises(HeapCorruption):
            slabs.free(higher)

    def test_sweep_detects_smashed_header(self, slabs: SlabAllocator, space):
        a = slabs.alloc(64)
        b = slabs.alloc(64)
        lower = min(a, b)
        capacity = slabs.chunk_capacity(lower)
        space.store(lower, b"X" * (capacity + CHUNK_HEADER))
        with pytest.raises(HeapCorruption):
            slabs.check()

    def test_clean_sweep_passes(self, slabs: SlabAllocator):
        for _ in range(10):
            slabs.alloc(64)
        slabs.check()


class TestAccounting:
    def test_resident_bytes_grows_by_slab_pages(self, slabs: SlabAllocator):
        assert slabs.resident_bytes() == 0
        slabs.alloc(64)
        assert slabs.resident_bytes() == slabs.slab_page_size
        # same class: second alloc reuses the page
        slabs.alloc(64)
        assert slabs.resident_bytes() == slabs.slab_page_size
        # different class: new page
        slabs.alloc(8192)
        assert slabs.resident_bytes() == 2 * slabs.slab_page_size

    def test_stats_per_class(self, slabs: SlabAllocator):
        slabs.alloc(64)
        slabs.alloc(64)
        stats = slabs.stats()
        used = [s for s in stats if s.used_chunks]
        assert len(used) == 1
        assert used[0].used_chunks == 2
        assert used[0].slab_pages == 1

    def test_reset_clears_everything(self, slabs: SlabAllocator):
        for _ in range(10):
            slabs.alloc(256)
        slabs.reset()
        assert slabs.live_chunks == 0
        assert slabs.resident_bytes() == 0
        slabs.alloc(256)  # usable again

    def test_alloc_free_counters(self, slabs: SlabAllocator):
        a = slabs.alloc(64)
        slabs.alloc(64)
        slabs.free(a)
        assert slabs.total_allocs == 2
        assert slabs.total_frees == 1


# ----------------------------------------------------------------------
# Differential: the allocator against the dict/list allocator it replaced
# ----------------------------------------------------------------------


class ReferenceSlab:
    """The slab allocator as it was before its bookkeeping went flat: a
    dict from chunk address to class for live chunks and a list of free
    chunk addresses per class. The one change is that :meth:`check`
    sweeps live chunks in address order, as the allocator under test
    documents, instead of in allocation order."""

    def __init__(self, space, base, size, chunk_sizes=None, slab_page_size=64 * 1024):
        self.space = space
        self.base = base
        self.size = size
        self.slab_page_size = slab_page_size
        self.chunk_sizes = sorted(chunk_sizes or default_size_classes())
        if self.chunk_sizes[-1] + CHUNK_HEADER > slab_page_size:
            raise SdradError(
                "largest chunk class does not fit in one slab page "
                f"({self.chunk_sizes[-1]} + header > {slab_page_size})"
            )
        self._next_page = base
        self._free_chunks = {i: [] for i in range(len(self.chunk_sizes))}
        self._pages_per_class = {i: 0 for i in range(len(self.chunk_sizes))}
        self._live: dict[int, int] = {}
        self._header_bytes = [
            CHUNK_MAGIC.to_bytes(4, "little") + class_id.to_bytes(4, "little")
            for class_id in range(len(self.chunk_sizes))
        ]
        self.total_allocs = 0
        self.total_frees = 0

    def class_for(self, nbytes):
        class_id = bisect_left(self.chunk_sizes, nbytes)
        if class_id == len(self.chunk_sizes):
            raise AllocationFailure(
                f"object of {nbytes} bytes exceeds largest slab class "
                f"({self.chunk_sizes[-1]})"
            )
        return class_id

    def alloc(self, nbytes):
        if nbytes <= 0:
            raise SdradError(f"allocation size must be positive, got {nbytes}")
        class_id = self.class_for(nbytes)
        free = self._free_chunks[class_id]
        if not free:
            self._grow_class(class_id)
            free = self._free_chunks[class_id]
        addr = free.pop()
        self.space.raw_store(addr, self._header_bytes[class_id])
        self._live[addr] = class_id
        self.total_allocs += 1
        return addr + CHUNK_HEADER

    def free(self, payload_addr):
        addr = payload_addr - CHUNK_HEADER
        class_id = self._live.get(addr)
        if class_id is None:
            raise InvalidFree(payload_addr, "not a live slab chunk")
        raw = self.space.raw_load(addr, CHUNK_HEADER)
        if raw != self._header_bytes[class_id]:
            magic = int.from_bytes(raw[0:4], "little")
            if magic != CHUNK_MAGIC:
                raise HeapCorruption(addr, f"chunk magic smashed ({magic:#x})")
            raise HeapCorruption(addr, "chunk class id smashed")
        del self._live[addr]
        self._free_chunks[class_id].append(addr)
        self.total_frees += 1

    def chunk_capacity(self, payload_addr):
        class_id = self._live.get(payload_addr - CHUNK_HEADER)
        if class_id is None:
            raise InvalidFree(payload_addr, "not a live slab chunk")
        return self.chunk_sizes[class_id]

    def reset(self):
        self._next_page = self.base
        for free in self._free_chunks.values():
            free.clear()
        for class_id in self._pages_per_class:
            self._pages_per_class[class_id] = 0
        self._live.clear()

    @property
    def live_chunks(self):
        return len(self._live)

    def resident_bytes(self):
        return self._next_page - self.base

    def stats(self):
        out = []
        for class_id, chunk_size in enumerate(self.chunk_sizes):
            pages = self._pages_per_class[class_id]
            total = pages * (self.slab_page_size // (chunk_size + CHUNK_HEADER))
            out.append(
                SlabClassStats(
                    chunk_size=chunk_size,
                    total_chunks=total,
                    used_chunks=total - len(self._free_chunks[class_id]),
                    slab_pages=pages,
                )
            )
        return out

    def check(self):
        live = sorted(self._live.items())
        headers = self.space.raw_load_many((addr, CHUNK_HEADER) for addr, _ in live)
        for (addr, class_id), raw in zip(live, headers):
            magic = int.from_bytes(raw[0:4], "little")
            stored_class = int.from_bytes(raw[4:8], "little")
            if magic != CHUNK_MAGIC or stored_class != class_id:
                raise HeapCorruption(addr, "slab sweep found smashed chunk header")

    def _grow_class(self, class_id):
        if self._next_page + self.slab_page_size > self.base + self.size:
            raise AllocationFailure(
                f"slab arena exhausted growing class {class_id} "
                f"({self.resident_bytes()}/{self.size} bytes resident)"
            )
        page = self._next_page
        self._next_page += self.slab_page_size
        self._pages_per_class[class_id] += 1
        stride = self.chunk_sizes[class_id] + CHUNK_HEADER
        for i in range(self.slab_page_size // stride):
            self._free_chunks[class_id].append(page + i * stride)


DIFF_SPACE = 64 * 1024
#: (base, arena size, slab page size, chunk sizes): arenas of a few pages
#: so that random runs exhaust them, odd strides, a base off zero, an
#: arena that is not a whole number of pages, pages of a few chunks with
#: slack at their end, and a smallest class wider than a liveness slot.
DIFF_CONFIGS = [
    (0, 4 * 4096, 4096, default_size_classes(16, 4088, 1.5)),
    (0, 16 * 256, 256, [40, 56, 120, 248]),
    (8192, 5 * 4096 + 100, 4096, [16, 24, 100, 4088]),
    (4096, 3 * 8192, 8192, default_size_classes(64, 8184, 2.0)),
    (0, 4 * 4096, 4096, [300, 1000, 4088]),  # strides above a 255-byte slot
]


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _observables(slabs):
    return (
        slabs.stats(),
        slabs.live_chunks,
        slabs.resident_bytes(),
        slabs.total_allocs,
        slabs.total_frees,
        slabs.space.raw_load(slabs.base, slabs.size),
    )


def _pair(config):
    base, size, page, chunks = config
    pair = []
    for cls in (SlabAllocator, ReferenceSlab):
        space = AddressSpace(size=DIFF_SPACE)
        space.page_table.map_range(0, DIFF_SPACE, pkey=0)
        pair.append(cls(space, base, size, chunk_sizes=chunks, slab_page_size=page))
    return pair


_OPS = ["alloc", "alloc", "burst", "free", "drain", "capacity", "smash", "check", "reset"]


def _target(data, slabs, live, freed):
    """A payload address: live, already freed, inside a chunk or wild."""
    kind = data.draw(st.sampled_from(["live", "live", "live", "double", "mid", "wild"]))
    if kind == "live" and live:
        return data.draw(st.sampled_from(live))
    if kind == "double" and freed:
        return data.draw(st.sampled_from(freed))
    if kind == "mid" and live:
        # Inside a chunk or its header, or whole strides away: a slot that
        # may be free, in another class's page or in a page's end slack.
        strides = [size + CHUNK_HEADER for size in slabs.chunk_sizes]
        skew = data.draw(
            st.one_of(
                st.integers(-CHUNK_HEADER - 8, 96).filter(bool),
                st.sampled_from(strides + [-stride for stride in strides]),
            )
        )
        return data.draw(st.sampled_from(live)) + skew
    return data.draw(st.integers(slabs.base - 64, slabs.base + slabs.size + 64))


class TestDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(config=st.sampled_from(DIFF_CONFIGS), data=st.data())
    def test_matches_the_dict_and_list_allocator(self, config, data):
        slabs, reference = _pair(config)
        largest = reference.chunk_sizes[-1]
        sizes = st.one_of(
            st.integers(-2, 0),
            st.integers(1, largest),
            st.sampled_from(reference.chunk_sizes),
            st.integers(largest + 1, largest + 64),
        )
        live: list[int] = []
        freed: list[int] = []
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(_OPS))
            if op in ("alloc", "burst"):
                nbytes = data.draw(sizes)
                count = data.draw(st.integers(2, 200)) if op == "burst" else 1
                for _ in range(count):
                    got = _outcome(slabs.alloc, nbytes)
                    assert got == _outcome(reference.alloc, nbytes)
                    if got[0] != "ok":
                        break
                    live.append(got[1])
            elif op == "capacity":
                addr = _target(data, reference, live, freed)
                got = _outcome(slabs.chunk_capacity, addr)
                assert got == _outcome(reference.chunk_capacity, addr)
            elif op in ("free", "drain"):
                count = data.draw(st.integers(2, 20)) if op == "drain" else 1
                for _ in range(count):
                    addr = _target(data, reference, live, freed)
                    got = _outcome(slabs.free, addr)
                    assert got == _outcome(reference.free, addr)
                    if got[0] == "ok":
                        live.remove(addr)
                        freed.append(addr)
            elif op == "smash" and live:
                addr = data.draw(st.sampled_from(live)) - CHUNK_HEADER
                offset = data.draw(st.integers(0, CHUNK_HEADER - 1))
                junk = data.draw(st.binary(min_size=1, max_size=CHUNK_HEADER - offset))
                for allocator in (slabs, reference):
                    allocator.space.raw_store(addr + offset, junk)
            elif op == "check":
                assert _outcome(slabs.check) == _outcome(reference.check)
            elif op == "reset":
                slabs.reset()
                reference.reset()
                freed.extend(live)
                live.clear()
            assert _observables(slabs) == _observables(reference)


# ----------------------------------------------------------------------
# Memory bound: bookkeeping does not grow with the items stored
# ----------------------------------------------------------------------

BOOKKEEPING_ITEMS = 20_000
#: Bytes the slab's own Python-side bookkeeping may hold for a default
#: 4 MiB store of 20k small items: its fixed arrays (~58 KB of liveness
#: bytes) and nothing per item. A dict entry or int per chunk is ~1.2 MiB.
BOOKKEEPING_BUDGET = 128 * 1024


class TestBookkeepingMemory:
    def test_bookkeeping_holds_no_object_per_chunk(self):
        rng = random.Random(2023)
        values = [bytes(rng.randint(16, 128)) for _ in range(BOOKKEEPING_ITEMS)]
        tracemalloc.start()
        try:
            store = KVStore(SdradRuntime())
            for i, value in enumerate(values):
                store.set(b"key:%d" % i, value)
            assert store.item_count == BOOKKEEPING_ITEMS
            assert store.stats.evictions == 0
            # Dropping the store drops its index and with it the payload
            # addresses alloc returned; what the allocator keeps stays.
            slabs = store.slabs
            del store
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert slabs.live_chunks == BOOKKEEPING_ITEMS
        slab_bytes = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, slab_module.__file__)]
            ).statistics("filename")
        )
        assert slab_bytes < BOOKKEEPING_BUDGET
