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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

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
        self._next_page = base
        self._free_chunks: dict[int, list[int]] = {
            i: [] for i in range(len(self.chunk_sizes))
        }
        self._pages_per_class: dict[int, int] = {
            i: 0 for i in range(len(self.chunk_sizes))
        }
        self._live: dict[int, int] = {}  # chunk addr -> class id
        # Chunk headers are constant per class; precomputing them turns
        # the per-alloc header write and per-free verification into one
        # bytes store / compare.
        self._header_bytes: list[bytes] = [
            CHUNK_MAGIC.to_bytes(4, "little") + class_id.to_bytes(4, "little")
            for class_id in range(len(self.chunk_sizes))
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
        free = self._free_chunks[class_id]
        if not free:
            self._grow_class(class_id)
            free = self._free_chunks[class_id]
        addr = free.pop()
        self._write_chunk_header(addr, class_id)
        self._live[addr] = class_id
        self.total_allocs += 1
        return addr + CHUNK_HEADER

    def free(self, payload_addr: int) -> None:
        addr = payload_addr - CHUNK_HEADER
        class_id = self._live.get(addr)
        if class_id is None:
            raise InvalidFree(payload_addr, "not a live slab chunk")
        raw = self.space.raw_load(addr, CHUNK_HEADER)
        if raw != self._header_bytes[class_id]:
            # Decode only on the corruption path to name the defect.
            magic, stored_class = self._read_chunk_header(addr)
            if magic != CHUNK_MAGIC:
                raise HeapCorruption(addr, f"chunk magic smashed ({magic:#x})")
            raise HeapCorruption(addr, "chunk class id smashed")
        del self._live[addr]
        self._free_chunks[class_id].append(addr)
        self.total_frees += 1

    def chunk_capacity(self, payload_addr: int) -> int:
        addr = payload_addr - CHUNK_HEADER
        class_id = self._live.get(addr)
        if class_id is None:
            raise InvalidFree(payload_addr, "not a live slab chunk")
        return self.chunk_sizes[class_id]

    def reset(self) -> None:
        """Discard everything (domain rewind path)."""
        self._next_page = self.base
        for free in self._free_chunks.values():
            free.clear()
        for class_id in self._pages_per_class:
            self._pages_per_class[class_id] = 0
        self._live.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_chunks(self) -> int:
        return len(self._live)

    def resident_bytes(self) -> int:
        """Bytes consumed from the arena (slab pages handed out)."""
        return self._next_page - self.base

    def stats(self) -> list[SlabClassStats]:
        out = []
        for class_id, chunk_size in enumerate(self.chunk_sizes):
            pages = self._pages_per_class[class_id]
            per_page = self.slab_page_size // (chunk_size + CHUNK_HEADER)
            total = pages * per_page
            used = total - len(self._free_chunks[class_id])
            out.append(
                SlabClassStats(
                    chunk_size=chunk_size,
                    total_chunks=total,
                    used_chunks=used,
                    slab_pages=pages,
                )
            )
        return out

    def check(self) -> None:
        """Verify every live chunk's header (domain-boundary sweep).

        Headers are fetched with one batched kernel-path read — the sweep
        runs at every domain boundary, so its cost is part of the isolation
        overhead the paper quantifies.
        """
        if not self._live:
            return
        live = list(self._live.items())
        headers = self.space.raw_load_many(
            (addr, CHUNK_HEADER) for addr, _ in live
        )
        for (addr, class_id), raw in zip(live, headers):
            magic = int.from_bytes(raw[0:4], "little")
            stored_class = int.from_bytes(raw[4:8], "little")
            if magic != CHUNK_MAGIC or stored_class != class_id:
                raise HeapCorruption(addr, "slab sweep found smashed chunk header")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _grow_class(self, class_id: int) -> None:
        if self._next_page + self.slab_page_size > self.base + self.size:
            raise AllocationFailure(
                f"slab arena exhausted growing class {class_id} "
                f"({self.resident_bytes()}/{self.size} bytes resident)"
            )
        page = self._next_page
        self._next_page += self.slab_page_size
        self._pages_per_class[class_id] += 1
        stride = self.chunk_sizes[class_id] + CHUNK_HEADER
        count = self.slab_page_size // stride
        for i in range(count):
            self._free_chunks[class_id].append(page + i * stride)

    def _write_chunk_header(self, addr: int, class_id: int) -> None:
        self.space.raw_store(addr, self._header_bytes[class_id])

    def _read_chunk_header(self, addr: int) -> tuple[int, int]:
        raw = self.space.raw_load(addr, CHUNK_HEADER)
        return (
            int.from_bytes(raw[0:4], "little"),
            int.from_bytes(raw[4:8], "little"),
        )
