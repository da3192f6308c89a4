"""Per-page metadata: mapping state, permissions, protection-key tags.

This is the simulated MMU's view of memory. It deliberately stores *only*
what the isolation protocol needs — present bit, read/write permissions and
the protection key — because that is the entire interface SDRaD uses
(``mmap``/``mprotect``/``pkey_mprotect``).

It is two flat per-page arrays — a ``bytearray`` of permission bits and a
list of tags (CHERI and SFI tags are unbounded) — so every range operation
is a C-level slice operation, not a Python visit per page, and the access
checks read the arrays without building :class:`PageEntry` snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_

from ..errors import PermissionFault, SdradError, SegmentationFault
from .layout import PAGE_SIZE, is_page_aligned
from .mpk import NUM_PKEYS, PKEY_DEFAULT

#: Per-page permission bits; ``PRESENT`` (bit 0) is set exactly on mapped
#: pages, so an unmapped page's bits are zero. Unmapped pages carry tag 0.
PRESENT = 1
READABLE = 2
WRITABLE = 4


@dataclass(frozen=True)
class PageEntry:
    """Read-only snapshot of one page-table entry."""

    present: bool = False
    readable: bool = False
    writable: bool = False
    pkey: int = PKEY_DEFAULT

    def perms(self) -> str:
        if not self.present:
            return "---"
        r = "r" if self.readable else "-"
        w = "w" if self.writable else "-"
        return f"{r}{w}-"


def _perm_bits(readable: bool, writable: bool) -> int:
    return PRESENT | (READABLE if readable else 0) | (WRITABLE if writable else 0)


#: ``_SATISFYING[need]``: every permission byte that carries all bits of
#: ``need`` — the delete table for :meth:`PageTable.run_allows`.
_SATISFYING = [
    bytes(bits for bits in range(256) if bits & need == need) for need in range(8)
]
#: Range-update fills kept for reuse: at most this many (permission byte,
#: tag, page count) shapes, each at most ``_FILL_PAGES`` pages long.
_MAX_FILLS = 8
_FILL_PAGES = 4096


class PageTable:
    """Page table over a fixed-size simulated address space."""

    # The page table *is* the simulated tag substrate: MPK's key count is
    # its documented default and every other backend overrides num_keys.
    def __init__(self, space_size: int, num_keys: "int | None" = NUM_PKEYS) -> None:  # sdradlint: ignore[R6]
        if space_size <= 0 or not is_page_aligned(space_size):
            raise SdradError(
                f"address-space size must be a positive page multiple, got {space_size}"
            )
        #: Valid tag ceiling for :meth:`map_range`/:meth:`tag_range` — MPK's
        #: 16 hardware keys by default; ``None`` for substrates with
        #: full-width tags (CHERI object types, SFI region ids).
        self.num_keys = num_keys
        self.space_size = space_size
        self.num_pages = space_size // PAGE_SIZE
        self._bits = bytearray(self.num_pages)
        self._tags = [PKEY_DEFAULT] * self.num_pages  # sdradlint: ignore[R6] tag 0 is every backend's root tag
        #: Hook called with ``(first_page, last_page)`` after any mapping,
        #: permission, or key change — the simulated MMU's TLB shootdown.
        self.on_range_update = None
        # (permission byte, tag, pages) -> (permission run, tag run): the
        # fill sources of recent range updates. A per-request domain maps
        # and unmaps the same run every lifecycle, so both reuse theirs.
        self._fills: dict[tuple[int, int, int], tuple[bytes, list]] = {}

    # ------------------------------------------------------------------
    # Mapping / protection syscall analogues
    # ------------------------------------------------------------------
    # Each update applies to the leading pages that pass its per-page check,
    # raises naming the first page that fails, and shoots down the whole
    # range either way: a partial failure has already mutated the prefix.
    # ``map_range`` and ``unmap_range`` run on every domain init and destroy,
    # so they test their arguments inline and call the checkers (which
    # raise the precise error) only when a test fails.

    def map_range(
        self,
        address: int,
        length: int,
        *,
        readable: bool = True,
        writable: bool = True,
        pkey: int = PKEY_DEFAULT,  # sdradlint: ignore[R6] tag 0 is every backend's root tag
    ) -> None:
        """``mmap`` analogue: mark pages present with given perms and key."""
        if (
            pkey < 0
            or (self.num_keys is not None and pkey >= self.num_keys)
            or length <= 0
            or (address | length) % PAGE_SIZE
            or address < 0
            or address + length > self.space_size
        ):
            self._check_key(pkey)
            self._check_range(address, length)
        first = address // PAGE_SIZE
        stop = first + length // PAGE_SIZE
        try:
            run = self._bits[first:stop]
            end = stop - len(run.lstrip(b"\0"))  # first already-mapped page
            self._bits[first:end], self._tags[first:end] = self._fill(
                _perm_bits(readable, writable), pkey, end - first
            )
            if end < stop:
                raise SdradError(
                    f"page {end} already mapped (double map at {address:#x})"
                )
        finally:
            if self.on_range_update is not None:
                self.on_range_update(first, stop - 1)

    def unmap_range(self, address: int, length: int) -> None:
        """``munmap`` analogue."""
        if (
            length <= 0
            or (address | length) % PAGE_SIZE
            or address < 0
            or address + length > self.space_size
        ):
            self._check_range(address, length)
        first = address // PAGE_SIZE
        stop = first + length // PAGE_SIZE
        try:
            end = self._bits.find(0, first, stop)  # first unmapped page
            if end < 0:
                end = stop
            self._bits[first:end], self._tags[first:end] = self._fill(
                0, PKEY_DEFAULT, end - first  # sdradlint: ignore[R6] tag 0 is every backend's root tag
            )
            if end < stop:
                raise SdradError(f"page {end} not mapped (double unmap)")
        finally:
            if self.on_range_update is not None:
                self.on_range_update(first, stop - 1)

    def protect_range(
        self, address: int, length: int, *, readable: bool, writable: bool
    ) -> None:
        """``mprotect`` analogue."""
        first, stop = self._check_range(address, length)
        try:
            end = self._mapped_prefix_end(first, stop)
            self._bits[first:end] = bytes((_perm_bits(readable, writable),)) * (end - first)
            if end < stop:
                raise SegmentationFault(end * PAGE_SIZE, access="mprotect")
        finally:
            if self.on_range_update is not None:
                self.on_range_update(first, stop - 1)

    def tag_range(self, address: int, length: int, pkey: int) -> None:
        """``pkey_mprotect`` analogue: retag pages with a protection key."""
        self._check_key(pkey)
        first, stop = self._check_range(address, length)
        try:
            end = self._mapped_prefix_end(first, stop)
            self._tags[first:end] = [pkey] * (end - first)
            if end < stop:
                raise SegmentationFault(end * PAGE_SIZE, access="pkey_mprotect")
        finally:
            if self.on_range_update is not None:
                self.on_range_update(first, stop - 1)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def entry_for(self, address: int) -> PageEntry:
        """Snapshot of the entry covering ``address`` (faults off-space)."""
        if not 0 <= address < self.space_size:
            raise SegmentationFault(address)
        index = address // PAGE_SIZE
        bits = self._bits[index]
        return PageEntry(
            bool(bits & PRESENT),
            bool(bits & READABLE),
            bool(bits & WRITABLE),
            self._tags[index],
        )

    def pages_tagged(self, pkey: int) -> list[int]:
        """Page indices currently tagged with ``pkey``."""
        # PRESENT is bit 0: ``bits & (tag == pkey)`` selects mapped matches.
        matches = map(and_, self._bits, map(pkey.__eq__, self._tags))
        return list(compress(range(self.num_pages), matches))

    def mapped_bytes(self) -> int:
        return PAGE_SIZE * (self.num_pages - self._bits.count(0))

    def is_mapped_as(self, address: int, length: int, pkey: int) -> bool:
        """Whether every page of the in-space, page-aligned range is mapped
        read-write with tag ``pkey`` — exactly what ``map_range(address,
        length, pkey=pkey)`` leaves."""
        first = address // PAGE_SIZE
        stop = first + length // PAGE_SIZE
        pages = stop - first
        return (
            self._bits.count(PRESENT | READABLE | WRITABLE, first, stop) == pages
            and self._tags[first:stop].count(pkey) == pages
        )

    def access_fault(self, address: int, write: bool, gate, violation):
        """The fault a checked access to the in-space page holding
        ``address`` raises under ``gate``, or ``None`` if it is allowed."""
        index = address // PAGE_SIZE
        bits = self._bits[index]
        access = "store" if write else "load"
        if not bits & PRESENT:
            return SegmentationFault(address, access=access)
        if not bits & (WRITABLE if write else READABLE):
            return PermissionFault(address, access, self.entry_for(address).perms())
        tag = self._tags[index]
        if not (gate.allows_write(tag) if write else gate.allows_read(tag)):
            return violation(address, tag, access)
        return None

    def run_allows(self, first: int, stop: int, gate, read: bool, write: bool) -> bool:
        """Whether every page in ``[first, stop)`` passes :meth:`access_fault`
        for the given modes, read off the run once: deleting every
        permission byte that carries the needed bits must leave nothing,
        and the gate is asked once per distinct tag (once in all when the
        whole run carries one tag). Raises and counts nothing.

        Every gate grants write only together with read (MPK's WD bit only
        narrows a key AD leaves open; a grant set records write per
        readable tag), so a write query alone decides a read-write run."""
        need = PRESENT | (READABLE if read else 0) | (WRITABLE if write else 0)
        if self._bits[first:stop].translate(None, _SATISFYING[need]):
            return False
        tags = self._tags[first:stop]
        if not tags:
            return True
        tag = tags[0]
        if tags.count(tag) == len(tags):
            if write:
                return gate.allows_write(tag)
            return not read or gate.allows_read(tag)
        if write:
            return all(map(gate.allows_write, set(tags)))
        return not read or all(map(gate.allows_read, set(tags)))

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _check_key(self, pkey: int) -> None:
        if pkey < 0 or (self.num_keys is not None and pkey >= self.num_keys):
            raise SdradError(f"protection key out of range: {pkey}")

    def _check_range(self, address: int, length: int) -> tuple[int, int]:
        """Validate a page-aligned in-space range; return its page span."""
        if length <= 0:
            raise SdradError(f"range length must be positive, got {length}")
        if (address | length) % PAGE_SIZE:
            raise SdradError(
                f"range [{address:#x}, +{length:#x}) is not page aligned"
            )
        if address < 0 or address + length > self.space_size:
            raise SegmentationFault(address, access="map")
        return address // PAGE_SIZE, (address + length) // PAGE_SIZE

    def _mapped_prefix_end(self, first: int, stop: int) -> int:
        """First unmapped page in ``[first, stop)``, or ``stop``."""
        hole = self._bits.find(0, first, stop)
        return stop if hole < 0 else hole

    def _fill(self, bits: int, tag: int, count: int) -> tuple[bytes, list]:
        """A run of ``count`` permission bytes ``bits`` and one of ``count``
        tags ``tag``, reused across updates of the same shape."""
        key = (bits, tag, count)
        fill = self._fills.get(key)
        if fill is None:
            fill = (bytes((bits,)) * count, [tag] * count)
            if count <= _FILL_PAGES:
                if len(self._fills) >= _MAX_FILLS:
                    self._fills.clear()
                self._fills[key] = fill
        return fill
