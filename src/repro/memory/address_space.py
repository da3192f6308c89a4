"""The simulated byte-addressable address space with MPK enforcement.

Every load/store issued by simulated application code goes through
:meth:`AddressSpace.load` / :meth:`AddressSpace.store`, which perform the
checks real hardware performs on every access:

1. page present? → :class:`~repro.errors.SegmentationFault`
2. page permissions allow the access? → :class:`~repro.errors.PermissionFault`
3. PKRU allows the page's protection key? →
   :class:`~repro.errors.ProtectionKeyViolation`

This is the load-bearing substitution of the reproduction (DESIGN.md §2):
moving enforcement from MMU silicon into the load/store path preserves the
*protocol* — a compromised domain's wild write faults at the domain boundary
instead of corrupting its neighbour.

Software TLB
------------

Real hardware amortises the page-table walk with a TLB; without the software
analogue every simulated access pays a full walk plus PKRU evaluation, which
is exactly the cost the paper's mechanism is designed to avoid. The
*permission cache* here plays that role: the verdict of a successful check is
cached per ``(page, read/write)`` under the **current PKRU value**, so the
common case — repeated access to already-validated pages — is one dict probe.

Invalidation mirrors what hardware (or the kernel on its behalf) does:

* ``WRPKRU`` (every :meth:`PkruRegister.write`) switches the active verdict
  cache to one keyed by the new PKRU value — verdicts computed under a
  different PKRU are never consulted;
* page-table updates (map/unmap/mprotect/pkey_mprotect) shoot down the
  affected pages in *all* cached PKRU views;
* ``pkey_free`` (key recycling) flushes every verdict.

Only *allow* verdicts are cached. Denied accesses always take the slow path
and raise, so fault counting and fault types are byte-for-byte identical to
the uncached behaviour — the TLB must never change observable semantics.

``raw_load``/``raw_store`` bypass all checks; they model *kernel* access and
are reserved for trusted-runtime internals (snapshotting, page scrubbing).
Fault injectors must use the checked path: containment of an attacker is
exactly what experiments E4 and the integration tests assert.
"""

from __future__ import annotations

import mmap
from typing import Iterable

from ..errors import SdradError, SegmentationFault
from .backends import resolve_backend
from .layout import DEFAULT_SPACE_SIZE, PAGE_SIZE, pages_spanned
from .pagetable import PageTable
from .plans import AccessPlanCache

#: Largest fill block cached by :meth:`AddressSpace.raw_fill` (1 MiB): fills
#: of any size reuse views of these blocks instead of materialising a
#: ``length``-sized temporary.
_FILL_BLOCK = 1 << 20
_fill_blocks: dict[int, memoryview] = {}

#: Most per-gate-value verdict views the software TLB keeps. A write of one
#: more distinct gate value flushes every view (and every access plan).
_TLB_VIEW_BOUND = 64


def _fill_block(value: int) -> memoryview:
    block = _fill_blocks.get(value)
    if block is None:
        if len(_fill_blocks) >= 8:
            _fill_blocks.clear()
        block = memoryview(bytes([value]) * _FILL_BLOCK)
        _fill_blocks[value] = block
    return block


class AddressSpace:
    """A simulated process address space: bytes + page table + PKRU."""

    def __init__(
        self,
        size: int = DEFAULT_SPACE_SIZE,
        tlb_enabled: bool = True,
        access_plans: bool = True,
        backend: object = "mpk",
    ) -> None:
        #: The isolation substrate. The gate, the tag allocator, the
        #: page-table tag ceiling and the violation a denied access raises
        #: all come from it; everything else in this class is generic.
        self.backend = resolve_backend(backend)
        self.page_table = PageTable(size, num_keys=self.backend.num_page_tags)
        #: The substrate's permission gate. ``pkru`` is the historical name
        #: (and still literally a PKRU register under the MPK default);
        #: ``gate`` is the same object under its substrate-neutral name.
        self.pkru = self.backend.create_gate()
        self.gate = self.pkru
        #: The substrate's domain-tag allocator (``pkeys`` historically).
        self.pkeys = self.backend.create_allocator()
        self.tags = self.pkeys
        self._violation = self.backend.violation
        # An anonymous private mapping: the kernel zero-fills each page on
        # first touch, so resident memory follows the pages written, not
        # the size of the space (DESIGN.md §2).
        self._memory = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self._view = memoryview(self._memory)
        #: Access counters, used by cost accounting and tests.
        self.loads = 0
        self.stores = 0
        self.faults = 0
        # --- software TLB (permission cache) --------------------------
        # Verdict caches keyed by PKRU value; each cache maps
        # ``page_index * 2 + (1 if write else 0)`` -> True (allow only).
        self.tlb_enabled = tlb_enabled
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.tlb_flushes = 0
        self._tlb: dict[int, bool] = {}
        self._tlb_by_pkru: dict[int, dict[int, bool]] = {
            self.pkru.value: self._tlb
        }
        if self.tlb_enabled:
            self.pkru.on_write = self._tlb_switch_pkru
            self.pkeys.on_free = self._tlb_on_pkey_free
            self.page_table.on_range_update = self._tlb_invalidate_pages
        # --- compiled access plans (repro.memory.plans) ---------------
        # Plans piggyback on the TLB shootdown hooks above for their
        # invalidation signal, so they exist only when the TLB does.
        self.access_plans = bool(access_plans) and self.tlb_enabled
        self.plans: AccessPlanCache | None = (
            AccessPlanCache(self) if self.access_plans else None
        )

    @property
    def size(self) -> int:
        return self.page_table.space_size

    # ------------------------------------------------------------------
    # Checked access (application path)
    # ------------------------------------------------------------------

    def load(self, address: int, length: int) -> bytes:
        """Checked read of ``length`` bytes at ``address``."""
        # Fast path: single-page access whose read verdict is cached under
        # the current PKRU. A cached page is mapped and inside the space, so
        # the fused page/bounds condition is the only check needed.
        if (
            0 < length <= PAGE_SIZE - address % PAGE_SIZE
            and address // PAGE_SIZE * 2 in self._tlb
        ):
            self.tlb_hits += 1
        else:
            self._check_access(address, length, write=False)
        self.loads += 1
        return bytes(self._view[address : address + length])

    def store(self, address: int, data: bytes) -> None:
        """Checked write of ``data`` at ``address``."""
        length = len(data)
        if (
            0 < length <= PAGE_SIZE - address % PAGE_SIZE
            and address // PAGE_SIZE * 2 + 1 in self._tlb
        ):
            self.tlb_hits += 1
        else:
            self._check_access(address, length, write=True)
        self.stores += 1
        self._memory[address : address + length] = data

    def load_view(self, address: int, length: int) -> memoryview:
        """Checked zero-copy read: a read-only view of the bytes.

        For callers that can consume a buffer without owning it (parsers,
        checksumming, serialisation) this skips the copy ``load`` makes.
        The view aliases live memory: it reflects later stores, so callers
        must not hold it across writes they do not want to observe.
        """
        if (
            0 < length <= PAGE_SIZE - address % PAGE_SIZE
            and address // PAGE_SIZE * 2 in self._tlb
        ):
            self.tlb_hits += 1
        else:
            self._check_access(address, length, write=False)
        self.loads += 1
        return self._view[address : address + length].toreadonly()

    def load_many(self, requests: Iterable[tuple[int, int]]) -> list[bytes]:
        """Checked batched read: ``[load(a, n) for a, n in requests]``."""
        load = self.load
        return [load(address, length) for address, length in requests]

    def load_u32(self, address: int) -> int:
        return int.from_bytes(self.load(address, 4), "little")

    def store_u32(self, address: int, value: int) -> None:
        self.store(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    # ------------------------------------------------------------------
    # Raw access (trusted runtime / kernel path)
    # ------------------------------------------------------------------

    def raw_load(self, address: int, length: int) -> bytes:
        self._check_bounds(address, length)
        return bytes(self._view[address : address + length])

    def raw_view(self, address: int, length: int) -> memoryview:
        """Zero-copy kernel-path read (read-only view of live memory)."""
        self._check_bounds(address, length)
        return self._view[address : address + length].toreadonly()

    def raw_load_many(self, requests: Iterable[tuple[int, int]]) -> list[bytes]:
        """Batched kernel-path read for metadata sweeps (slab/heap walks)."""
        view = self._view
        out: list[bytes] = []
        for address, length in requests:
            self._check_bounds(address, length)
            out.append(bytes(view[address : address + length]))
        return out

    def raw_store(self, address: int, data: bytes) -> None:
        self._check_bounds(address, len(data))
        self._memory[address : address + len(data)] = data

    def raw_fill(self, address: int, length: int, value: int = 0) -> None:
        self._check_bounds(address, length)
        if length == 0:
            return
        # Fill from views of a cached repeated-byte block instead of
        # materialising a length-sized temporary — GiB-scale scrubs in the
        # E2 restart simulations allocate nothing.
        block = _fill_block(value & 0xFF)
        view = self._view
        position = address
        end = address + length
        while position < end:
            step = min(_FILL_BLOCK, end - position)
            view[position : position + step] = block[:step]
            position += step

    # ------------------------------------------------------------------
    # Software TLB maintenance
    # ------------------------------------------------------------------

    def tlb_flush(self) -> None:
        """Drop every cached verdict (all PKRU views) and every plan."""
        self._flush_verdicts()
        if self.plans is not None:
            self.plans.shootdown()

    def _flush_verdicts(self) -> None:
        self._tlb = {}
        self._tlb_by_pkru = {self.pkru.value: self._tlb}
        self.tlb_flushes += 1

    def _tlb_switch_pkru(self, value: int) -> None:
        """WRPKRU hook: activate the verdict cache for the new PKRU value.

        Verdicts depend on PKRU, so caches are segregated per PKRU value
        rather than flushed — domain switches alternate between a handful of
        PKRU values and keep their warm caches.
        """
        cache = self._tlb_by_pkru.get(value)
        if cache is None:
            if len(self._tlb_by_pkru) >= _TLB_VIEW_BOUND:
                # Pathological PKRU churn: fall back to a full flush. The
                # discarded verdict dicts are exactly what checked plans
                # anchor their validity to, so they must die with them.
                self._tlb_by_pkru.clear()
                self.tlb_flushes += 1
                if self.plans is not None:
                    self.plans.shootdown()
            cache = {}
            self._tlb_by_pkru[value] = cache
        self._tlb = cache
        # Plans compiled under other PKRU values need no action here: each
        # checked plan captures its verdict dict and tests identity against
        # ``self._tlb`` per access, so this switch makes foreign plans
        # dormant exactly like it benches foreign verdict caches.

    def _tlb_invalidate_pages(self, first_page: int, last_page: int) -> None:
        """Page-table hook: shoot down pages in every cached PKRU view."""
        # Empty views (most of them: ``pkey_free`` flushes every view) have
        # nothing to shoot down; ``filter`` skips them without a visit.
        for cache in filter(None, self._tlb_by_pkru.values()):
            if last_page - first_page + 1 > len(cache):
                for key in [k for k in cache if first_page <= k >> 1 <= last_page]:
                    del cache[key]
            else:
                for page in range(first_page, last_page + 1):
                    cache.pop(page * 2, None)
                    cache.pop(page * 2 + 1, None)
        self.tlb_flushes += 1
        # A mapping/permission/key change kills only the checked plans
        # over the updated pages; kernel plans never read the page table.
        plans = self.plans
        if plans is not None:
            plans.shootdown_checked(first_page * PAGE_SIZE, (last_page + 1) * PAGE_SIZE)

    def _tlb_on_pkey_free(self, pkey: int) -> None:
        """``pkey_free`` hook: a recycled key may re-appear under a new
        owner with the same PKRU bits, so no cached verdict and no checked
        plan is safe. Kernel plans read neither the gate nor the page
        table, so they survive."""
        self._flush_verdicts()
        if self.plans is not None:
            self.plans.shootdown_checked()

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _check_bounds(self, address: int, length: int) -> None:
        if length < 0:
            raise SdradError(f"negative access length {length}")
        if address < 0 or address + length > self.size:
            raise SegmentationFault(address)

    def _check_access(self, address: int, length: int, *, write: bool) -> None:
        self._check_bounds(address, length)
        if length == 0:
            return
        bit = 1 if write else 0
        tlb = self._tlb
        enabled = self.tlb_enabled
        for index in pages_spanned(address, length):
            key = index * 2 + bit
            if key in tlb:
                self.tlb_hits += 1
                continue
            self._check_page(index * PAGE_SIZE, write=write)
            if enabled:
                self.tlb_misses += 1
                tlb[key] = True

    def _check_page(self, address: int, *, write: bool) -> None:
        # ``address`` is bounds-checked; a TLB miss builds no entry snapshot.
        fault = self.page_table.access_fault(
            address, write, self.pkru, self._violation
        )
        if fault is not None:
            self.faults += 1
            raise fault
