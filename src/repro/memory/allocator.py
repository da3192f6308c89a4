"""A first-fit free-list heap allocator over the simulated address space.

SDRaD gives every domain its own heap instance so that *discard* is cheap:
tearing down a compromised domain's allocations is a constant-time allocator
reset, not a walk over live objects. This allocator reproduces the properties
the scheme depends on:

* **Metadata lives in simulated memory.** Block headers and guard words are
  real bytes adjacent to payloads, so a simulated buffer overflow corrupts
  them exactly like a real one corrupts dlmalloc's boundary tags — and the
  integrity checks (:meth:`FreeListAllocator.free`,
  :meth:`FreeListAllocator.check`) detect it.
* **Reset-is-discard.** :meth:`reset` abandons all blocks in O(1) plus an
  optional page scrub, matching SDRaD's rewind-and-discard semantics
  (ablation D2 in DESIGN.md).

Block layout (all integers little-endian)::

    +0   u32  magic       ALLOC_MAGIC (in use) or FREE_MAGIC (free)
    +4   u32  capacity    payload capacity, 16-byte aligned
    +8   u32  requested   size the caller asked for (<= capacity)
    +12  u32  checksum    magic ^ capacity ^ requested
    +16  ...  payload     (capacity bytes)
    +16+cap   u64 x2 guard  GUARD_PATTERN twice (16-byte overflow red zone,
              keeping payloads 16-byte aligned)

Allocator metadata accesses use the raw (kernel) path: the allocator models
inlined library code running with its domain's rights, and routing metadata
through PKRU checks would only re-test what the application path already
tests. Application payload accesses stay on the checked path.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, insort
from dataclasses import dataclass

from ..errors import AllocationFailure, HeapCorruption, InvalidFree, SdradError
from .address_space import AddressSpace

HEADER_SIZE = 16
GUARD_SIZE = 16
ALIGNMENT = 16

ALLOC_MAGIC = 0x5DAD_A110
FREE_MAGIC = 0x5DAD_F4EE
GUARD_PATTERN = 0xDEAD_BEEF_CAFE_F00D

_HEADER_STRUCT = struct.Struct("<IIII")
_GUARD_BYTES = GUARD_PATTERN.to_bytes(8, "little") * 2


def _align(value: int) -> int:
    return (value + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def check_arena_size(size: int) -> None:
    """Raise :class:`SdradError` unless ``size`` bytes hold one block."""
    if size < HEADER_SIZE + GUARD_SIZE + ALIGNMENT:
        raise SdradError(f"arena too small for one block: {size} bytes")


@dataclass
class HeapStats:
    """Point-in-time allocator statistics."""

    arena_bytes: int
    allocated_bytes: int
    free_bytes: int
    live_blocks: int
    free_blocks: int
    peak_allocated_bytes: int
    total_allocs: int
    total_frees: int

    @property
    def utilisation(self) -> float:
        if self.arena_bytes == 0:
            return 0.0
        return self.allocated_bytes / self.arena_bytes


class FreeListAllocator:
    """First-fit allocator with boundary-tag headers and overflow guards."""

    def __init__(
        self, space: AddressSpace, base: int, size: int, name: str = "heap"
    ) -> None:
        check_arena_size(size)
        self.space = space
        self.base = base
        self.size = size
        # Python-side mirror of block layout for O(1) lookups; simulated
        # memory remains the source of truth for integrity checks.
        self._blocks: dict[int, tuple[int, bool]] = {}  # addr -> (capacity, in_use)
        # Block addresses kept sorted (bisect-maintained) so first-fit and
        # coalescing avoid re-sorting the block map on every call.
        self._addrs: list[int] = []
        # Deferred-free fast bin (dlmalloc's fastbin idea, depth 1): the
        # most recently freed block is parked fully verified but with its
        # ALLOC header still in place; an exact-capacity malloc reclaims
        # it without the first-fit walk, split, FREE-header write, or
        # coalesce. Any other operation retires it through the normal
        # free path first, so observable heap state never diverges.
        self._hot: "tuple[int, int] | None" = None  # (block addr, capacity)
        # Compiled kernel window over the arena for boundary-tag I/O;
        # looked up on first use, and again after a full shootdown.
        self._plan = None
        # What every reset writes: the whole arena as one free block.
        capacity = size - HEADER_SIZE - GUARD_SIZE
        self._empty = (
            capacity,
            _HEADER_STRUCT.pack(FREE_MAGIC, capacity, 0, FREE_MAGIC ^ capacity),
            base + HEADER_SIZE + capacity,
        )
        self.reset_full(name)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns the payload address."""
        if nbytes <= 0:
            raise SdradError(f"allocation size must be positive, got {nbytes}")
        capacity = _align(nbytes)
        hot = self._hot
        if hot is not None:
            if hot[1] == capacity:
                # Exact-fit reclaim of the parked block: its guard was
                # verified intact at park time, but free memory is fair
                # game for wild writes, so the guard is rewritten exactly
                # as the slow path would.
                addr = hot[0]
                self._hot = None
                self._write_block(addr, ALLOC_MAGIC, capacity, nbytes)
                self.total_allocs += 1
                self._allocated_bytes += capacity
                self._peak_allocated = max(
                    self._peak_allocated, self._allocated_bytes
                )
                if self._scrub_pending:
                    self.space.raw_fill(addr + HEADER_SIZE, capacity, 0)
                    self.lazy_scrubbed_bytes += capacity
                return addr + HEADER_SIZE
            self._retire_hot()
        blocks = self._blocks
        for addr in self._addrs:
            block_capacity, in_use = blocks[addr]
            if in_use or block_capacity < capacity:
                continue
            # When the remainder is too small to split off, the whole block
            # is used and its true capacity must be recorded (otherwise the
            # arena walk desynchronises at the leftover bytes).
            capacity = self._split_block(addr, block_capacity, capacity)
            self._write_block(addr, ALLOC_MAGIC, capacity, nbytes)
            self._blocks[addr] = (capacity, True)
            self.total_allocs += 1
            self._allocated_bytes += capacity
            self._peak_allocated = max(self._peak_allocated, self._allocated_bytes)
            if self._scrub_pending:
                # Scrub-on-reallocate: the deferred discard-time scrub is
                # paid here, for exactly the bytes being handed back out.
                self.space.raw_fill(addr + HEADER_SIZE, capacity, 0)
                self.lazy_scrubbed_bytes += capacity
            return addr + HEADER_SIZE

    # first-fit found nothing
        raise AllocationFailure(
            f"{self.name}: out of memory allocating {nbytes} bytes "
            f"({self._allocated_bytes}/{self.size} in use)"
        )

    def free(self, payload_addr: int) -> None:
        """Free a payload pointer, verifying header and guard integrity."""
        if self._hot is not None:
            # Completing the previous deferred free first keeps the heap
            # exactly as if every free had run eagerly — including turning
            # a re-free of the parked block into the same "double free"
            # (or, post-coalesce, "does not belong") the eager path raises.
            self._retire_hot()
        addr = payload_addr - HEADER_SIZE
        if addr not in self._blocks:
            raise InvalidFree(payload_addr, "pointer does not belong to this heap")
        magic, capacity, requested, checksum = self._read_header(addr)
        if magic == FREE_MAGIC:
            raise InvalidFree(payload_addr, "double free")
        if magic != ALLOC_MAGIC:
            raise HeapCorruption(addr, f"header magic smashed ({magic:#x})")
        if checksum != (magic ^ capacity ^ requested) & 0xFFFFFFFF:
            raise HeapCorruption(addr, "header checksum mismatch")
        mirror_capacity, in_use = self._blocks[addr]
        if capacity != mirror_capacity or not in_use:
            raise HeapCorruption(addr, "header capacity disagrees with allocator state")
        guard = self._read_guard(addr, capacity)
        if guard != _GUARD_BYTES:
            raise HeapCorruption(
                addr + HEADER_SIZE + capacity,
                f"guard bytes overwritten ({guard.hex()}) — buffer overflow",
            )
        # Park instead of freeing eagerly: the block keeps its ALLOC
        # header and mirror entry until something retires it.
        self._hot = (addr, capacity)
        self.total_frees += 1
        self._allocated_bytes -= capacity

    def payload_capacity(self, payload_addr: int) -> int:
        """Usable capacity behind a payload pointer."""
        addr = payload_addr - HEADER_SIZE
        if self._hot is not None and self._hot[0] == addr:
            self._retire_hot()
        if addr not in self._blocks or not self._blocks[addr][1]:
            raise InvalidFree(payload_addr, "not an allocated block")
        return self._blocks[addr][0]

    def check(self) -> None:
        """Walk the whole arena verifying every header and guard.

        This models the heap-integrity sweep SDRaD can run at a domain
        boundary; it raises :class:`HeapCorruption` on the first defect.
        """
        self._retire_hot()
        addr = self.base
        end = self.base + self.size
        seen = 0
        while addr < end:
            magic, capacity, requested, checksum = self._read_header(addr)
            if magic not in (ALLOC_MAGIC, FREE_MAGIC):
                raise HeapCorruption(addr, f"walk found bad magic {magic:#x}")
            if checksum != (magic ^ capacity ^ requested) & 0xFFFFFFFF:
                raise HeapCorruption(addr, "walk found bad checksum")
            if magic == ALLOC_MAGIC:
                guard = self._read_guard(addr, capacity)
                if guard != _GUARD_BYTES:
                    raise HeapCorruption(
                        addr + HEADER_SIZE + capacity, "walk found smashed guard"
                    )
            mirror = self._blocks.get(addr)
            if mirror is None or mirror[0] != capacity:
                raise HeapCorruption(addr, "walk disagrees with allocator state")
            addr += HEADER_SIZE + capacity + GUARD_SIZE
            seen += 1
        if addr != end:
            raise HeapCorruption(addr, "arena walk overran the arena end")
        if seen != len(self._blocks):
            raise HeapCorruption(self.base, "block count mismatch")

    def reset_full(self, name: str) -> None:
        """Return to the freshly constructed state under a new ``name``.

        :meth:`reset` discards the allocations but keeps the allocator's
        identity (lifetime counters, peak, a pending lazy scrub): that is a
        rewind. This also renews the identity, so a destroyed domain's
        allocator can serve the next domain on the same arena exactly as a
        new one would: same bytes written, same counters. It keeps its plan
        reference: the plan covers the same arena and checks itself on
        every use (``cell[0]``), so the successor skips the lookup a new
        allocator would make.
        """
        self.name = name
        self.total_allocs = 0
        self.total_frees = 0
        self._peak_allocated = 0
        # Lazy scrub (reset(scrub=True, lazy=True)): arena bytes are stale
        # until reallocated; malloc zero-fills each block it hands out.
        self._scrub_pending = False
        self.lazy_scrubbed_bytes = 0
        self.reset()

    def reset(self, *, scrub: bool = False, lazy: bool = False) -> int:
        """Discard every allocation; returns number of pages scrubbed.

        With ``scrub=False`` (SDRaD's default) old contents remain as garbage
        behind re-tagged pages; ``scrub=True`` zero-fills the arena (ablation
        D2 measures the cost difference in E2). ``scrub=True, lazy=True``
        defers the zero-fill to reallocation time: no pages are touched now
        (the rewind stays flat regardless of arena size) and each later
        ``malloc`` zero-fills the block it hands out, so a new allocation
        never observes a previous incarnation's bytes. Unlike an eager
        scrub, stale bytes do remain in *unallocated* arena space — the E2b
        ablation keeps the eager mode for exactly that comparison.
        """
        pages = 0
        self._hot = None  # everything is discarded, deferred free included
        if scrub:
            if lazy:
                self._scrub_pending = True
            else:
                self.space.raw_fill(self.base, self.size, 0)
                self._scrub_pending = False
                pages = (self.size + 4095) // 4096
        # The whole arena becomes one free block: ``_write_block``'s bytes,
        # packed once.
        capacity, header, guard = self._empty
        plan = self._arena_plan()
        if plan is not None:
            plan.store(self.base, header)
            plan.store(guard, _GUARD_BYTES)
        else:
            self.space.raw_store(self.base, header)
            self.space.raw_store(guard, _GUARD_BYTES)
        self._blocks.clear()
        self._blocks[self.base] = (capacity, False)
        self._addrs = [self.base]
        self._allocated_bytes = 0
        return pages

    def export_state(self) -> tuple[dict[int, tuple[int, bool]], int]:
        """Snapshot the allocator's bookkeeping (checkpoint/restore path).

        Pairs with a byte-level snapshot of the arena: restoring both puts
        the heap back exactly as it was, metadata and mirror in agreement.
        Retires any deferred free first, so callers must export *before*
        capturing arena bytes (the retire writes boundary tags).
        """
        self._retire_hot()
        return dict(self._blocks), self._allocated_bytes

    def import_state(self, state: tuple[dict[int, tuple[int, bool]], int]) -> None:
        """Restore bookkeeping exported by :meth:`export_state`."""
        blocks, allocated = state
        # The restored snapshot was exported post-retire; whatever is
        # parked now belongs to the state being thrown away.
        self._hot = None
        self._blocks = dict(blocks)
        self._addrs = sorted(self._blocks)
        self._allocated_bytes = allocated

    def stats(self) -> HeapStats:
        self._retire_hot()
        live = sum(1 for _, in_use in self._blocks.values() if in_use)
        free_blocks = len(self._blocks) - live
        return HeapStats(
            arena_bytes=self.size,
            allocated_bytes=self._allocated_bytes,
            free_bytes=self.size
            - self._allocated_bytes
            - len(self._blocks) * (HEADER_SIZE + GUARD_SIZE),
            live_blocks=live,
            free_blocks=free_blocks,
            peak_allocated_bytes=self._peak_allocated,
            total_allocs=self.total_allocs,
            total_frees=self.total_frees,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _retire_hot(self) -> None:
        """Complete the deferred free: write the FREE tag and coalesce."""
        hot = self._hot
        if hot is None:
            return
        self._hot = None
        addr, capacity = hot
        self._write_header(addr, FREE_MAGIC, capacity, 0)
        self._blocks[addr] = (capacity, False)
        self._coalesce(addr)

    def _split_block(self, addr: int, block_capacity: int, wanted: int) -> int:
        """Split a free block if the remainder can hold another block.

        Returns the capacity the caller's block actually ends up with:
        ``wanted`` after a split, the whole ``block_capacity`` otherwise.
        """
        remainder = block_capacity - wanted
        min_block = HEADER_SIZE + GUARD_SIZE + ALIGNMENT
        if remainder < min_block:
            return block_capacity  # use the whole block
        new_addr = addr + HEADER_SIZE + wanted + GUARD_SIZE
        new_capacity = remainder - HEADER_SIZE - GUARD_SIZE
        self._write_block(new_addr, FREE_MAGIC, new_capacity, 0)
        self._blocks[new_addr] = (new_capacity, False)
        insort(self._addrs, new_addr)
        self._blocks[addr] = (wanted, False)
        return wanted

    def _coalesce(self, addr: int) -> None:
        """Merge the freed block with free neighbours (boundary-tag merge)."""
        addrs = self._addrs
        index = bisect_left(addrs, addr)
        # merge forward first so the backward merge sees the combined block
        capacity = self._blocks[addr][0]
        if index + 1 < len(addrs):
            nxt = addrs[index + 1]
            nxt_capacity, nxt_in_use = self._blocks[nxt]
            if not nxt_in_use and nxt == addr + HEADER_SIZE + capacity + GUARD_SIZE:
                capacity += HEADER_SIZE + nxt_capacity + GUARD_SIZE
                del self._blocks[nxt]
                del addrs[index + 1]
                self._blocks[addr] = (capacity, False)
                self._write_block(addr, FREE_MAGIC, capacity, 0)
        if index > 0:
            prev = addrs[index - 1]
            prev_capacity, prev_in_use = self._blocks.get(prev, (0, True))
            if (
                not prev_in_use
                and prev + HEADER_SIZE + prev_capacity + GUARD_SIZE == addr
            ):
                merged = prev_capacity + HEADER_SIZE + capacity + GUARD_SIZE
                del self._blocks[addr]
                del addrs[index]
                self._blocks[prev] = (merged, False)
                self._write_block(prev, FREE_MAGIC, merged, 0)

    def _arena_plan(self):
        """Live kernel plan over the arena, or ``None`` with plans off.

        Boundary-tag traffic is the allocator's whole access profile, so a
        single compiled window over ``[base, base+size)`` serves every
        header, guard and scrub. Like ``raw_*`` it ignores the page table
        and the gate, so it survives remaps and ``pkey_free``; a
        ``tlb_flush`` (or the plan-cache bound) drops ``cell[0]`` and the
        next call recompiles.
        """
        plan = self._plan
        if plan is not None and plan.cell[0]:
            return plan
        cache = self.space.plans
        if cache is None:
            return None
        self._plan = cache.kernel_plan(self.base, self.size)
        return self._plan

    def _write_header(self, addr: int, magic: int, capacity: int, requested: int) -> None:
        checksum = (magic ^ capacity ^ requested) & 0xFFFFFFFF
        plan = self._arena_plan()
        if plan is not None:
            plan.pack_into(_HEADER_STRUCT, addr, magic, capacity, requested, checksum)
        else:
            self.space.raw_store(
                addr, _HEADER_STRUCT.pack(magic, capacity, requested, checksum)
            )

    def _write_block(
        self, addr: int, magic: int, capacity: int, requested: int
    ) -> None:
        """Write a block's header and its guard words (one plan lookup)."""
        checksum = (magic ^ capacity ^ requested) & 0xFFFFFFFF
        guard = addr + HEADER_SIZE + capacity
        plan = self._arena_plan()
        if plan is not None:
            plan.pack_into(_HEADER_STRUCT, addr, magic, capacity, requested, checksum)
            plan.store(guard, _GUARD_BYTES)
        else:
            space = self.space
            space.raw_store(
                addr, _HEADER_STRUCT.pack(magic, capacity, requested, checksum)
            )
            space.raw_store(guard, _GUARD_BYTES)

    def _read_header(self, addr: int) -> tuple[int, int, int, int]:
        plan = self._arena_plan()
        if plan is not None:
            return plan.unpack_from(_HEADER_STRUCT, addr)
        return _HEADER_STRUCT.unpack(self.space.raw_load(addr, HEADER_SIZE))

    def _read_guard(self, addr: int, capacity: int) -> bytes:
        plan = self._arena_plan()
        if plan is not None:
            return plan.load(addr + HEADER_SIZE + capacity, GUARD_SIZE)
        return self.space.raw_load(addr + HEADER_SIZE + capacity, GUARD_SIZE)
