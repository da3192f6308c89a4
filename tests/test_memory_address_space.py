"""Tests for the checked load/store path — the heart of the isolation model."""

from __future__ import annotations

import gc
import mmap
import os

import pytest

from repro.errors import (
    PermissionFault,
    ProtectionKeyViolation,
    SdradError,
    SegmentationFault,
)
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.sdrad.runtime import SdradRuntime

STATM = "/proc/self/statm"


@pytest.fixture
def space() -> AddressSpace:
    s = AddressSpace(size=64 * PAGE_SIZE)
    s.page_table.map_range(0, 4 * PAGE_SIZE, pkey=0)
    return s


class TestBasicAccess:
    def test_store_load_roundtrip(self, space: AddressSpace):
        space.store(100, b"hello")
        assert space.load(100, 5) == b"hello"

    def test_word_helpers(self, space: AddressSpace):
        space.store_u32(0, 0xDEADBEEF)
        assert space.load_u32(0) == 0xDEADBEEF
        space.store_u64(8, 2**63 + 5)
        assert space.load_u64(8) == 2**63 + 5
        space.store_u8(16, 0x7F)
        assert space.load_u8(16) == 0x7F

    def test_counters_track_accesses(self, space: AddressSpace):
        space.store(0, b"x")
        space.load(0, 1)
        space.load(0, 1)
        assert space.stores == 1
        assert space.loads == 2

    def test_zero_length_access_is_noop(self, space: AddressSpace):
        assert space.load(0, 0) == b""

    def test_negative_length_rejected(self, space: AddressSpace):
        with pytest.raises(SdradError):
            space.load(0, -1)


class TestSegmentationFaults:
    def test_unmapped_page_load_faults(self, space: AddressSpace):
        with pytest.raises(SegmentationFault):
            space.load(10 * PAGE_SIZE, 4)

    def test_unmapped_page_store_faults(self, space: AddressSpace):
        with pytest.raises(SegmentationFault):
            space.store(10 * PAGE_SIZE, b"data")

    def test_out_of_space_faults(self, space: AddressSpace):
        with pytest.raises(SegmentationFault):
            space.load(space.size, 1)

    def test_access_spanning_into_unmapped_faults(self, space: AddressSpace):
        # mapped region is 4 pages; write crossing its end must fault
        with pytest.raises(SegmentationFault):
            space.store(4 * PAGE_SIZE - 2, b"1234")

    def test_fault_counter_increments(self, space: AddressSpace):
        with pytest.raises(SegmentationFault):
            space.load(10 * PAGE_SIZE, 1)
        assert space.faults == 1


class TestPagePermissions:
    def test_readonly_page_rejects_store(self, space: AddressSpace):
        space.page_table.protect_range(0, PAGE_SIZE, readable=True, writable=False)
        with pytest.raises(PermissionFault):
            space.store(10, b"x")
        assert space.load(10, 1)  # reads still fine

    def test_noread_page_rejects_load(self, space: AddressSpace):
        space.page_table.protect_range(0, PAGE_SIZE, readable=False, writable=True)
        with pytest.raises(PermissionFault):
            space.load(10, 1)


class TestProtectionKeys:
    def test_untagged_pages_accessible_at_reset(self, space: AddressSpace):
        space.store(0, b"ok")  # key 0, reset PKRU allows

    def test_tagged_page_denied_by_default(self, space: AddressSpace):
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, 3)
        with pytest.raises(ProtectionKeyViolation):
            space.load(PAGE_SIZE, 1)
        with pytest.raises(ProtectionKeyViolation):
            space.store(PAGE_SIZE, b"x")

    def test_grant_enables_access(self, space: AddressSpace):
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, 3)
        space.pkru.grant(3)
        space.store(PAGE_SIZE, b"now allowed")
        assert space.load(PAGE_SIZE, 11) == b"now allowed"

    def test_write_disable_allows_reads_only(self, space: AddressSpace):
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, 3)
        space.pkru.grant(3, read=True, write=False)
        space.load(PAGE_SIZE, 1)
        with pytest.raises(ProtectionKeyViolation):
            space.store(PAGE_SIZE, b"x")

    def test_violation_reports_key(self, space: AddressSpace):
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, 5)
        with pytest.raises(ProtectionKeyViolation) as excinfo:
            space.load(PAGE_SIZE, 1)
        assert excinfo.value.pkey == 5

    def test_cross_key_spanning_access_faults(self, space: AddressSpace):
        """An access spanning pages of two keys faults on the denied one."""
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, 4)
        # [PAGE_SIZE-2, PAGE_SIZE+2) spans key-0 page and key-4 page
        with pytest.raises(ProtectionKeyViolation):
            space.load(PAGE_SIZE - 2, 4)


class TestRawAccess:
    def test_raw_bypasses_pkeys(self, space: AddressSpace):
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, 3)
        space.raw_store(PAGE_SIZE, b"kernel")
        assert space.raw_load(PAGE_SIZE, 6) == b"kernel"

    def test_raw_bypasses_mapping(self, space: AddressSpace):
        space.raw_store(20 * PAGE_SIZE, b"anywhere")
        assert space.raw_load(20 * PAGE_SIZE, 8) == b"anywhere"

    def test_raw_still_bounds_checked(self, space: AddressSpace):
        with pytest.raises(SegmentationFault):
            space.raw_load(space.size, 1)

    def test_raw_fill(self, space: AddressSpace):
        space.raw_store(0, b"\xff" * 16)
        space.raw_fill(0, 16, 0)
        assert space.raw_load(0, 16) == b"\x00" * 16


class TestCheckModes:
    def test_off_mode_never_faults_on_mapping(self):
        space = AddressSpace(size=8 * PAGE_SIZE, check_mode="off")
        space.store(0, b"unchecked")  # nothing mapped, still fine
        assert space.load(0, 9) == b"unchecked"

    def test_first_mode_checks_only_first_page(self):
        space = AddressSpace(size=8 * PAGE_SIZE, check_mode="first")
        space.page_table.map_range(0, PAGE_SIZE)
        # spans into unmapped page 1, but only page 0 is checked
        space.store(PAGE_SIZE - 2, b"1234")

    def test_strict_mode_checks_every_page(self):
        space = AddressSpace(size=8 * PAGE_SIZE, check_mode="strict")
        space.page_table.map_range(0, PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            space.store(PAGE_SIZE - 2, b"1234")

    def test_unknown_mode_rejected(self):
        with pytest.raises(SdradError):
            AddressSpace(size=PAGE_SIZE, check_mode="bogus")  # type: ignore[arg-type]


class TestBatchedAndZeroCopyAccess:
    def test_load_many_matches_individual_loads(self, space: AddressSpace):
        space.store(0, b"aaaa")
        space.store(100, b"bbbb")
        space.store(PAGE_SIZE + 4, b"cccc")
        requests = [(0, 4), (100, 4), (PAGE_SIZE + 4, 4)]
        assert space.load_many(requests) == [b"aaaa", b"bbbb", b"cccc"]

    def test_load_many_counts_each_access(self, space: AddressSpace):
        space.store(0, b"x" * 8)
        before = space.loads
        space.load_many([(0, 4), (4, 4)])
        assert space.loads == before + 2

    def test_load_many_faults_like_load(self, space: AddressSpace):
        with pytest.raises(SegmentationFault):
            space.load_many([(0, 4), (10 * PAGE_SIZE, 4)])

    def test_store_many_roundtrip(self, space: AddressSpace):
        space.store_many([(0, b"one"), (50, b"two")])
        assert space.load(0, 3) == b"one"
        assert space.load(50, 3) == b"two"
        assert space.stores == 2

    def test_store_many_faults_on_readonly_page(self, space: AddressSpace):
        space.page_table.protect_range(0, PAGE_SIZE, readable=True, writable=False)
        with pytest.raises(PermissionFault):
            space.store_many([(0, b"x")])

    def test_load_view_is_zero_copy_and_readonly(self, space: AddressSpace):
        space.store(0, b"live")
        view = space.load_view(0, 4)
        assert bytes(view) == b"live"
        space.store(0, b"LIVE")
        assert bytes(view) == b"LIVE"  # aliases live memory
        with pytest.raises(TypeError):
            view[0] = 0  # type: ignore[index]

    def test_load_view_checked(self, space: AddressSpace):
        with pytest.raises(SegmentationFault):
            space.load_view(10 * PAGE_SIZE, 4)

    def test_raw_view_and_raw_load_many(self, space: AddressSpace):
        space.raw_store(8, b"meta")
        assert bytes(space.raw_view(8, 4)) == b"meta"
        assert space.raw_load_many([(8, 4), (8, 2)]) == [b"meta", b"me"]

    def test_raw_fill_nonzero_value_and_large_region(self, space: AddressSpace):
        space.raw_fill(0, 3 * PAGE_SIZE, 0xAB)
        assert space.raw_load(0, 3 * PAGE_SIZE) == b"\xab" * (3 * PAGE_SIZE)
        space.raw_fill(16, 8, 7)
        assert space.raw_load(16, 8) == bytes([7]) * 8


def settled_rss() -> int:
    """Resident bytes of this process after a full collection."""
    gc.collect()
    with open(STATM) as statm:
        return int(statm.read().split()[1]) * mmap.PAGESIZE


class TestLazilyBackedMemory:
    """A space's bytes cost resident memory only once they are written."""

    @pytest.mark.skipif(not os.access(STATM, os.R_OK), reason="needs /proc (Linux)")
    def test_untouched_runtimes_stay_small(self):
        before = settled_rss()
        runtimes = [SdradRuntime() for _ in range(8)]
        grown = settled_rss() - before
        assert len(runtimes) == 8
        # Eight 16 MiB spaces; zero-filled up front they would add 128 MiB.
        assert grown < 16 * 2**20, f"8 runtimes made {grown / 2**20:.1f} MiB resident"

    def test_fresh_space_reads_zeros_at_both_ends(self):
        space = AddressSpace()
        last_page = space.size - PAGE_SIZE
        space.page_table.map_range(0, PAGE_SIZE, pkey=0)
        space.page_table.map_range(last_page, PAGE_SIZE, pkey=0)
        assert space.load(0, 1) == b"\x00"
        assert space.load(space.size - 1, 1) == b"\x00"
        assert space.load(last_page, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_store_across_a_page_boundary_round_trips(self):
        space = AddressSpace(size=4 * PAGE_SIZE)
        space.page_table.map_range(0, 2 * PAGE_SIZE, pkey=0)
        data = bytes(range(1, 17))
        space.store(PAGE_SIZE - 5, data)
        assert space.load(PAGE_SIZE - 5, len(data)) == data
        assert space.raw_load(PAGE_SIZE - 6, len(data) + 2) == b"\x00" + data + b"\x00"

    def test_one_byte_past_the_end_faults(self):
        space = AddressSpace(size=4 * PAGE_SIZE)
        space.page_table.map_range(0, 4 * PAGE_SIZE, pkey=0)
        with pytest.raises(SegmentationFault):
            space.load(space.size, 1)
        with pytest.raises(SegmentationFault):
            space.store(space.size - 1, b"ab")
        with pytest.raises(SegmentationFault):
            space.raw_store(space.size, b"a")
        assert space.raw_load(space.size - 1, 1) == b"\x00"
