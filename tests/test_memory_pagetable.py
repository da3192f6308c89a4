"""Tests for the page table (mmap/mprotect/pkey_mprotect analogues)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SdradError, SegmentationFault
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.memory.pagetable import _FILL_PAGES, _MAX_FILLS, PageTable


@pytest.fixture
def table() -> PageTable:
    return PageTable(16 * PAGE_SIZE)


class TestConstruction:
    def test_rejects_unaligned_size(self):
        with pytest.raises(SdradError):
            PageTable(PAGE_SIZE + 1)

    def test_rejects_zero_size(self):
        with pytest.raises(SdradError):
            PageTable(0)

    def test_all_pages_start_unmapped(self, table: PageTable):
        for page in range(table.num_pages):
            assert not table.entry_for(page * PAGE_SIZE).present


class TestMapping:
    def test_map_sets_present_and_perms(self, table: PageTable):
        table.map_range(0, 2 * PAGE_SIZE, readable=True, writable=False, pkey=3)
        entry = table.entry_for(PAGE_SIZE)
        assert entry.present and entry.readable and not entry.writable
        assert entry.pkey == 3

    def test_double_map_rejected(self, table: PageTable):
        table.map_range(0, PAGE_SIZE)
        with pytest.raises(SdradError):
            table.map_range(0, PAGE_SIZE)

    def test_unmap_clears_entry(self, table: PageTable):
        table.map_range(0, PAGE_SIZE, pkey=5)
        table.unmap_range(0, PAGE_SIZE)
        entry = table.entry_for(0)
        assert not entry.present
        assert entry.pkey == 0

    def test_double_unmap_rejected(self, table: PageTable):
        table.map_range(0, PAGE_SIZE)
        table.unmap_range(0, PAGE_SIZE)
        with pytest.raises(SdradError):
            table.unmap_range(0, PAGE_SIZE)

    def test_unaligned_range_rejected(self, table: PageTable):
        with pytest.raises(SdradError):
            table.map_range(100, PAGE_SIZE)
        with pytest.raises(SdradError):
            table.map_range(0, 100)

    def test_out_of_space_range_faults(self, table: PageTable):
        with pytest.raises(SegmentationFault):
            table.map_range(15 * PAGE_SIZE, 2 * PAGE_SIZE)

    def test_fill_cache_stays_bounded(self):
        """Range updates reuse their fill runs per (permission, tag, pages)
        shape; more shapes than the bound never grow the cache past it,
        and a run longer than the cached length is built, not kept."""
        table = PageTable((_FILL_PAGES + 32) * PAGE_SIZE)
        sizes = []
        for pages in range(1, _MAX_FILLS + 6):
            table.map_range(0, pages * PAGE_SIZE, pkey=pages % 16)
            sizes.append(len(table._fills))
            assert table.entry_for((pages - 1) * PAGE_SIZE).pkey == pages % 16
            table.unmap_range(0, pages * PAGE_SIZE)
            sizes.append(len(table._fills))
            assert table.mapped_bytes() == 0
        assert max(sizes) == _MAX_FILLS  # reached, never exceeded
        table.map_range(0, (_FILL_PAGES + 1) * PAGE_SIZE, pkey=3)
        assert table.mapped_bytes() == (_FILL_PAGES + 1) * PAGE_SIZE
        assert all(count <= _FILL_PAGES for _, _, count in table._fills)

    def test_mapped_bytes(self, table: PageTable):
        table.map_range(0, 3 * PAGE_SIZE)
        assert table.mapped_bytes() == 3 * PAGE_SIZE


class TestProtection:
    def test_protect_changes_perms(self, table: PageTable):
        table.map_range(0, PAGE_SIZE)
        table.protect_range(0, PAGE_SIZE, readable=True, writable=False)
        assert table.entry_for(0).perms() == "r--"

    def test_protect_unmapped_faults(self, table: PageTable):
        with pytest.raises(SegmentationFault):
            table.protect_range(0, PAGE_SIZE, readable=True, writable=True)


class TestTagging:
    def test_tag_range_sets_pkey(self, table: PageTable):
        table.map_range(0, 2 * PAGE_SIZE)
        table.tag_range(0, 2 * PAGE_SIZE, 7)
        assert table.pages_tagged(7) == [0, 1]

    def test_tag_unmapped_faults(self, table: PageTable):
        with pytest.raises(SegmentationFault):
            table.tag_range(0, PAGE_SIZE, 7)

    def test_tag_invalid_key_rejected(self, table: PageTable):
        table.map_range(0, PAGE_SIZE)
        with pytest.raises(SdradError):
            table.tag_range(0, PAGE_SIZE, 16)

    def test_pages_tagged_excludes_unmapped(self, table: PageTable):
        table.map_range(0, PAGE_SIZE)
        table.tag_range(0, PAGE_SIZE, 4)
        table.unmap_range(0, PAGE_SIZE)
        assert table.pages_tagged(4) == []

    @pytest.mark.parametrize("pkey", [16, -1])
    def test_map_rejects_out_of_range_key(self, pkey):
        # A key the substrate cannot hold is refused at map time, so the
        # next access to those pages is a counted memory fault, never a
        # bare SdradError from the gate.
        space = AddressSpace(size=16 * PAGE_SIZE)
        with pytest.raises(SdradError, match=f"protection key out of range: {pkey}"):
            space.page_table.map_range(0, 4 * PAGE_SIZE, pkey=pkey)
        # Rejected before any page changed, so no shootdown either.
        assert space.tlb_flushes == 0
        assert space.page_table.mapped_bytes() == 0
        with pytest.raises(SegmentationFault):
            space.load(0, 4)
        assert space.faults == 1

    def test_unbounded_substrate_accepts_large_tags(self):
        table = PageTable(4 * PAGE_SIZE, num_keys=None)
        table.map_range(0, PAGE_SIZE, pkey=1 << 20)
        assert table.pages_tagged(1 << 20) == [0]
        with pytest.raises(SdradError):
            table.map_range(PAGE_SIZE, PAGE_SIZE, pkey=-1)


class TestLookup:
    def test_entry_for_out_of_range_faults(self, table: PageTable):
        with pytest.raises(SegmentationFault):
            table.entry_for(16 * PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            table.entry_for(-1)

    def test_perms_string_unmapped(self, table: PageTable):
        assert table.entry_for(0).perms() == "---"

    def test_entry_is_a_read_only_snapshot(self, table: PageTable):
        table.map_range(0, PAGE_SIZE, pkey=3)
        entry = table.entry_for(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.pkey = 5
        table.tag_range(0, PAGE_SIZE, 4)
        assert entry.pkey == 3
        assert table.entry_for(0).pkey == 4

    def test_pages_tagged_default_key_lists_mapped_pages_only(self, table: PageTable):
        table.map_range(2 * PAGE_SIZE, 2 * PAGE_SIZE)
        table.map_range(5 * PAGE_SIZE, PAGE_SIZE, pkey=1)
        assert table.pages_tagged(0) == [2, 3]
        assert table.mapped_bytes() == 3 * PAGE_SIZE


# ----------------------------------------------------------------------
# Differential property test against a per-page reference model
# ----------------------------------------------------------------------

_PAGES = 8


class ReferencePageTable:
    """The page table as one record per page, updated page by page: the
    semantics every range operation of :class:`PageTable` must match,
    partial failures included."""

    def __init__(self, num_keys):
        self.num_keys = num_keys
        self.pages = [(False, False, False, 0)] * _PAGES
        self.updates = []

    def _span(self, address, length):
        if length <= 0:
            raise SdradError(f"range length must be positive, got {length}")
        if address % PAGE_SIZE or length % PAGE_SIZE:
            raise SdradError(
                f"range [{address:#x}, +{length:#x}) is not page aligned"
            )
        if address < 0 or address + length > _PAGES * PAGE_SIZE:
            raise SegmentationFault(address, access="map")
        return range(address // PAGE_SIZE, (address + length) // PAGE_SIZE)

    def _check_key(self, pkey):
        if pkey < 0 or (self.num_keys is not None and pkey >= self.num_keys):
            raise SdradError(f"protection key out of range: {pkey}")

    def _apply(self, span, visit):
        try:
            for index in span:
                self.pages[index] = visit(index, self.pages[index])
        finally:
            self.updates.append((span.start, span.stop - 1))

    def map_range(self, address, length, *, readable, writable, pkey):
        self._check_key(pkey)
        span = self._span(address, length)

        def visit(index, page):
            if page[0]:
                raise SdradError(
                    f"page {index} already mapped (double map at {address:#x})"
                )
            return (True, readable, writable, pkey)

        self._apply(span, visit)

    def unmap_range(self, address, length):
        span = self._span(address, length)

        def visit(index, page):
            if not page[0]:
                raise SdradError(f"page {index} not mapped (double unmap)")
            return (False, False, False, 0)

        self._apply(span, visit)

    def protect_range(self, address, length, *, readable, writable):
        span = self._span(address, length)

        def visit(index, page):
            if not page[0]:
                raise SegmentationFault(index * PAGE_SIZE, access="mprotect")
            return (True, readable, writable, page[3])

        self._apply(span, visit)

    def tag_range(self, address, length, pkey):
        self._check_key(pkey)
        span = self._span(address, length)

        def visit(index, page):
            if not page[0]:
                raise SegmentationFault(index * PAGE_SIZE, access="pkey_mprotect")
            return (True, page[1], page[2], pkey)

        self._apply(span, visit)


def _outcome(call):
    try:
        call()
    except (SdradError, SegmentationFault) as exc:
        return type(exc), str(exc)
    return None


_ranges = st.tuples(
    st.integers(min_value=-1, max_value=_PAGES),  # first page
    st.integers(min_value=-1, max_value=_PAGES + 1),  # page count
    st.sampled_from([0, 0, 0, 0, 1, PAGE_SIZE // 2]),  # misalignment
)
_keys = st.sampled_from([0, 1, 2, 7, 15, 16, -1, 1 << 20])
_ops = st.one_of(
    st.tuples(st.just("map"), _ranges, st.booleans(), st.booleans(), _keys),
    st.tuples(st.just("unmap"), _ranges),
    st.tuples(st.just("protect"), _ranges, st.booleans(), st.booleans()),
    st.tuples(st.just("tag"), _ranges, _keys),
)


def _invoke(table, op):
    kind, (first, count, skew) = op[0], op[1]
    address, length = first * PAGE_SIZE + skew, count * PAGE_SIZE
    if kind == "map":
        return lambda: table.map_range(
            address, length, readable=op[2], writable=op[3], pkey=op[4]
        )
    if kind == "unmap":
        return lambda: table.unmap_range(address, length)
    if kind == "protect":
        return lambda: table.protect_range(
            address, length, readable=op[2], writable=op[3]
        )
    return lambda: table.tag_range(address, length, op[2])


@settings(max_examples=300, deadline=None)
@given(num_keys=st.sampled_from([16, None]), ops=st.lists(_ops, max_size=25))
def test_range_operations_match_per_page_reference(num_keys, ops):
    table = PageTable(_PAGES * PAGE_SIZE, num_keys=num_keys)
    updates = []
    table.on_range_update = lambda first, last: updates.append((first, last))
    reference = ReferencePageTable(num_keys)
    for op in ops:
        assert _outcome(_invoke(table, op)) == _outcome(_invoke(reference, op))
        assert updates == reference.updates
        got = [
            (e.present, e.readable, e.writable, e.pkey)
            for e in map(table.entry_for, range(0, _PAGES * PAGE_SIZE, PAGE_SIZE))
        ]
        assert got == reference.pages
        mapped = [i for i, page in enumerate(reference.pages) if page[0]]
        assert table.mapped_bytes() == len(mapped) * PAGE_SIZE
        for pkey in {0, 1, 2, 7, 15, 1 << 20}:
            assert table.pages_tagged(pkey) == [
                i for i in mapped if reference.pages[i][3] == pkey
            ]
