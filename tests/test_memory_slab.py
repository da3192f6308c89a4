"""Tests for the Memcached-style slab allocator."""

from __future__ import annotations

import pytest

from repro.errors import AllocationFailure, HeapCorruption, InvalidFree, SdradError
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.memory.slab import (
    CHUNK_HEADER,
    SlabAllocator,
    default_size_classes,
)

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
