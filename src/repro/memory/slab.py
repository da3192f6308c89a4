"""A Memcached-style slab allocator on the simulated address space.

The paper's flagship use case is Memcached, whose allocator is not a general
heap but a *slab* allocator: the arena is carved into fixed-size slab pages,
each page is assigned to a *size class* and divided into equal chunks, and
items occupy the smallest chunk that fits. Reproducing it matters for two
experiments:

* E2 — restart cost scales with the bytes resident in slabs (the "10 GB
  database" the paper reloads in ~2 minutes);
* E4 — per-item chunk headers give the store a realistic corruption surface.

Chunk layout::

    +0  u32 magic       CHUNK_MAGIC
    +4  u32 class_id    size-class index
    +8  ... payload

Like :mod:`repro.memory.allocator`, metadata accesses use the raw path while
payload accesses are the application's problem (checked path).

Bookkeeping holds no Python object per chunk. Each size class keeps a stack
of freed chunk addresses (an ``array('q')``) and a count of never-used
chunks on its newest slab page, handed out highest address first. An array
maps each slab page to its class. Liveness is one byte per *slot*: the
arena cut into spans of the smallest class's stride (at most 255 bytes), so
that no two chunks of any class start in one slot. A slot holds 0, or 1 +
the offset in the slot at which its live chunk starts, which makes "is this
the start of a live chunk" one divmod and one compare. For a 4 MiB arena of
default classes that is about 58 KB, however many items it holds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from ..errors import AllocationFailure, HeapCorruption, InvalidFree, SdradError
from .address_space import AddressSpace

CHUNK_HEADER = 8
CHUNK_MAGIC = 0x51AB_17E3
DEFAULT_SLAB_PAGE = 64 * 1024


def default_size_classes(
    smallest: int = 64, largest: int = 16 * 1024, growth: float = 1.25
) -> list[int]:
    """Memcached-style geometric chunk-size ladder."""
    if smallest <= CHUNK_HEADER:
        raise SdradError(f"smallest class must exceed header size, got {smallest}")
    if growth <= 1.0:
        raise SdradError(f"growth factor must be > 1, got {growth}")
    classes = [smallest]
    while classes[-1] < largest:
        nxt = int(classes[-1] * growth)
        if nxt == classes[-1]:
            nxt += 8
        classes.append(min(nxt, largest))
    return classes


@dataclass
class SlabClassStats:
    chunk_size: int
    total_chunks: int
    used_chunks: int
    slab_pages: int


class SlabAllocator:
    """Slab allocation with geometric size classes over a fixed arena."""

    def __init__(
        self,
        space: AddressSpace,
        base: int,
        size: int,
        chunk_sizes: list[int] | None = None,
        slab_page_size: int = DEFAULT_SLAB_PAGE,
    ) -> None:
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
        classes = len(self.chunk_sizes)
        self._strides = [chunk + CHUNK_HEADER for chunk in self.chunk_sizes]
        self._per_page = [slab_page_size // stride for stride in self._strides]
        pages = max(size // slab_page_size, 0)
        self._next_page = base
        self._pages_per_class = [0] * classes
        # Class ids are u32 in the chunk header; so are the page map's.
        self._page_class = array("I", [0]) * pages
        # Liveness slots: chunks of any class start at least one smallest
        # stride apart, so at most one starts in each slot; capping the
        # slot at 255 bytes keeps 1 + the start's offset in one byte.
        slot = self._slot_size = min(self._strides[0], 0xFF)
        self._payload_base = base + CHUNK_HEADER
        self._live = bytearray(-(-pages * slab_page_size // slot))
        self._freed = [array("q") for _ in range(classes)]
        # Never-used chunks left on each class's newest page (at address
        # ``_newest[c]``); chunk ``_fresh[c] - 1`` is handed out next.
        self._fresh = [0] * classes
        self._newest = [0] * classes
        # Chunk headers are constant per class; precomputing them turns
        # the per-alloc header write and per-free verification into one
        # bytes store / compare.
        self._header_bytes: list[bytes] = [
            CHUNK_MAGIC.to_bytes(4, "little") + class_id.to_bytes(4, "little")
            for class_id in range(classes)
        ]
        self.total_allocs = 0
        self.total_frees = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def class_for(self, nbytes: int) -> int:
        """Smallest size class whose chunks can hold ``nbytes``."""
        class_id = bisect_left(self.chunk_sizes, nbytes)
        if class_id == len(self.chunk_sizes):
            raise AllocationFailure(
                f"object of {nbytes} bytes exceeds largest slab class "
                f"({self.chunk_sizes[-1]})"
            )
        return class_id

    def alloc(self, nbytes: int) -> int:
        """Allocate a chunk for ``nbytes``; returns the payload address."""
        if nbytes <= 0:
            raise SdradError(f"allocation size must be positive, got {nbytes}")
        class_id = self.class_for(nbytes)
        payload = self.take(class_id)
        if payload is None:
            raise AllocationFailure(
                f"slab arena exhausted growing class {class_id} "
                f"({self.resident_bytes()}/{self.size} bytes resident)"
            )
        return payload

    def class_pages(self, class_id: int) -> int:
        """Slab pages handed to ``class_id`` (pages never change class)."""
        return self._pages_per_class[class_id]

    def take(self, class_id: int) -> int | None:
        """:meth:`alloc` for a known class, without raising when the arena
        is exhausted: returns the payload address, or ``None`` when the
        class has no free chunk and no slab page is left to give it."""
        freed = self._freed[class_id]
        if freed:
            addr = freed.pop()
        else:
            index = self._fresh[class_id] - 1
            if index < 0:
                if self._next_page + self.slab_page_size > self.base + self.size:
                    return None
                index = self._grow_class(class_id) - 1
            self._fresh[class_id] = index
            addr = self._newest[class_id] + index * self._strides[class_id]
        self.space.raw_store(addr, self._header_bytes[class_id])
        slot, start = divmod(addr - self.base, self._slot_size)
        self._live[slot] = start + 1
        self.total_allocs += 1
        return addr + CHUNK_HEADER

    def free(self, payload_addr: int) -> None:
        slot, class_id = self._live_slot(payload_addr)
        addr = payload_addr - CHUNK_HEADER
        raw = self.space.raw_load(addr, CHUNK_HEADER)
        if raw != self._header_bytes[class_id]:
            # Decode only on the corruption path to name the defect.
            magic = int.from_bytes(raw[0:4], "little")
            if magic != CHUNK_MAGIC:
                raise HeapCorruption(addr, f"chunk magic smashed ({magic:#x})")
            raise HeapCorruption(addr, "chunk class id smashed")
        self._live[slot] = 0
        self._freed[class_id].append(addr)
        self.total_frees += 1

    def chunk_capacity(self, payload_addr: int) -> int:
        return self.chunk_sizes[self._live_slot(payload_addr)[1]]

    def reset(self) -> None:
        """Discard everything (domain rewind path)."""
        self._next_page = self.base
        for class_id, freed in enumerate(self._freed):
            del freed[:]
            self._fresh[class_id] = 0
            self._pages_per_class[class_id] = 0
        self._live = bytearray(len(self._live))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_chunks(self) -> int:
        return len(self._live) - self._live.count(0)

    def resident_bytes(self) -> int:
        """Bytes consumed from the arena (slab pages handed out)."""
        return self._next_page - self.base

    def stats(self) -> list[SlabClassStats]:
        out = []
        for class_id, chunk_size in enumerate(self.chunk_sizes):
            pages = self._pages_per_class[class_id]
            total = pages * self._per_page[class_id]
            free = len(self._freed[class_id]) + self._fresh[class_id]
            out.append(
                SlabClassStats(
                    chunk_size=chunk_size,
                    total_chunks=total,
                    used_chunks=total - free,
                    slab_pages=pages,
                )
            )
        return out

    def check(self) -> None:
        """Verify every live chunk's header (domain-boundary sweep).

        Live chunks are swept in address order, so of several smashed
        headers the lowest is reported. Headers are fetched with one
        batched kernel-path read — the sweep runs at every domain boundary,
        so its cost is part of the isolation overhead the paper quantifies.
        """
        live = self._live
        base, slot_size = self.base, self._slot_size
        addrs = [
            base + slot * slot_size + live[slot] - 1
            for slot in compress(range(len(live)), live)
        ]
        headers = self.space.raw_load_many((addr, CHUNK_HEADER) for addr in addrs)
        for addr, raw in zip(addrs, headers):
            class_id = self._page_class[(addr - base) // self.slab_page_size]
            if raw != self._header_bytes[class_id]:
                raise HeapCorruption(addr, "slab sweep found smashed chunk header")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _live_slot(self, payload_addr: int) -> tuple[int, int]:
        """The liveness slot and class of the live chunk whose payload
        starts at ``payload_addr``; :class:`InvalidFree` for any other
        address (never handed out, freed, or inside a chunk)."""
        offset = payload_addr - self._payload_base
        slot, start = divmod(offset, self._slot_size)
        if 0 <= slot < len(self._live) and self._live[slot] == start + 1:
            return slot, self._page_class[offset // self.slab_page_size]
        raise InvalidFree(payload_addr, "not a live slab chunk")

    def _grow_class(self, class_id: int) -> int:
        """Hand the next slab page to ``class_id``; returns its chunk count."""
        page = self._next_page
        self._next_page += self.slab_page_size
        self._pages_per_class[class_id] += 1
        self._page_class[(page - self.base) // self.slab_page_size] = class_id
        self._newest[class_id] = page
        return self._per_page[class_id]
