"""Domain objects: an isolated heap + stack behind one protection key.

A :class:`Domain` owns page-aligned heap and stack regions tagged with its
protection key, a :class:`~repro.memory.allocator.FreeListAllocator` over
the heap and a canaried :class:`~repro.memory.stack.CallStack`. The runtime
(:mod:`repro.sdrad.runtime`) handles entry/exit and recovery; the domain
itself only knows how to *discard* — reset its memory to a known-good empty
state, the core of rewind-and-discard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.address_space import AddressSpace
from ..memory.allocator import FreeListAllocator
from ..memory.stack import CallStack
from .constants import DomainFlags, DomainState

_NONISOLATED_HEAP = int(DomainFlags.NONISOLATED_HEAP)
_CHECK_HEAP_ON_EXIT = int(DomainFlags.CHECK_HEAP_ON_EXIT)
_SCRUB_ON_DISCARD = int(DomainFlags.SCRUB_ON_DISCARD)
_RETURN_TO_PARENT = int(DomainFlags.RETURN_TO_PARENT)
_ALL_FLAGS = sum(int(flag) for flag in DomainFlags)
# Module globals load several times faster than enum class attributes.
_INITIALIZED, _ACTIVE, _FAULTED, _DESTROYED = DomainState  # definition order

#: ``Domain.flags``' derived booleans for every combination of flag bits,
#: indexed by the plain-int flags value (derived once, not per domain).
_POLICY = [
    (
        bool(bits & _NONISOLATED_HEAP),
        bool(bits & _CHECK_HEAP_ON_EXIT),
        bool(bits & _SCRUB_ON_DISCARD),
        bool(bits & _RETURN_TO_PARENT),
    )
    for bits in range(_ALL_FLAGS + 1)
]


@dataclass
class DomainStats:
    """Per-domain lifetime statistics (reported by E1/E4 harnesses)."""

    entries: int = 0
    clean_exits: int = 0
    faults: int = 0
    rewinds: int = 0
    #: Re-entries a retrying policy made after a rewind; each also counts
    #: in ``entries``, so ``entries - retries`` is the number of executions.
    retries: int = 0
    bytes_copied_in: int = 0
    bytes_copied_out: int = 0
    fault_kinds: dict[str, int] = field(default_factory=dict)

    def record_fault(self, kind: str) -> None:
        self.faults += 1
        self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + 1

    def absorb(self, other: "DomainStats") -> None:
        """Add ``other``'s counts to these (retiring a destroyed domain)."""
        self.entries += other.entries
        self.clean_exits += other.clean_exits
        self.faults += other.faults
        self.rewinds += other.rewinds
        self.retries += other.retries
        self.bytes_copied_in += other.bytes_copied_in
        self.bytes_copied_out += other.bytes_copied_out
        if other.fault_kinds:
            for kind, count in other.fault_kinds.items():
                self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + count


class Domain:
    """One isolated execution domain (SDRaD's unit of rewind)."""

    def __init__(
        self,
        udi: int,
        pkey: int,
        space: AddressSpace,
        heap: FreeListAllocator,
        stack: CallStack,
        flags: DomainFlags = DomainFlags.DEFAULT,
        parent_udi: int | None = None,
        *,
        lazy_scrub: bool = False,
        entry_gate: tuple[int, int] | None = None,
    ) -> None:
        self.udi = udi
        self.pkey = pkey
        self.space = space
        # What the ``flags`` setter does, without the property call.
        self._flags = flags
        (
            self.nonisolated_heap,
            self.check_heap_on_exit,
            self.scrub_on_discard,
            self.return_to_parent,
        ) = _POLICY[int(flags) & _ALL_FLAGS]
        self.parent_udi = parent_udi
        #: When true, ``SCRUB_ON_DISCARD`` defers the zero-fill to
        #: reallocation time (scrub-on-reallocate): discard cost stays flat
        #: regardless of domain size. The eager mode remains for E2b.
        self.lazy_scrub = lazy_scrub
        self.state = _INITIALIZED
        #: The domain's memory: an allocator over its heap region and a
        #: canaried stack over its stack region, both freshly constructed
        #: or reset to that state (``reset_full``) by the runtime. A
        #: destroyed domain lets go of both (:meth:`mark_destroyed`).
        self.heap: FreeListAllocator | None = heap
        self.stack: CallStack | None = stack
        self.heap_base = heap.base
        self.heap_size = heap.size
        self.stack_base = stack.base
        self.stack_size = stack.size
        self.stats = DomainStats()
        #: ``(gate value, modelled writes)`` an isolated entry derives for
        #: this domain's key (``None``: not derived yet). The first entry
        #: derives it, or it is carried over from the retired domain whose
        #: key and regions this one adopted; every entry replays it.
        self.entry_gate = entry_gate
        #: The reusable ``DomainHandle`` of isolated entries, made by the
        #: first (``None``: not entered since init or the last retag, so
        #: the next entry counts a re-entry miss).
        self.entry_handle = None

    # ------------------------------------------------------------------
    # Flags (policy bits), with derived booleans cached
    # ------------------------------------------------------------------

    @property
    def flags(self) -> DomainFlags:
        return self._flags

    @flags.setter
    def flags(self, value: DomainFlags) -> None:
        # Flag tests sit on the entry/exit hot path; IntFlag's ``&`` is two
        # orders of magnitude slower than an attribute load, so the checks
        # below read these cached booleans (derived with plain-int masks).
        # Anything that changes flags after construction must go through
        # this setter (the runtime's ``set_domain_flags`` does). The entry
        # cached in ``entry_gate`` depends on the key alone, so it stays.
        self._flags = value
        (
            self.nonisolated_heap,
            self.check_heap_on_exit,
            self.scrub_on_discard,
            self.return_to_parent,
        ) = _POLICY[int(value) & _ALL_FLAGS]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def mark_faulted(self) -> None:
        self.state = _FAULTED

    def mark_destroyed(self) -> tuple[FreeListAllocator, CallStack]:
        """Retire the domain; returns its heap allocator and stack.

        The domain keeps its regions' bases and sizes and its final stats,
        but no longer holds the allocator, the stack or its entry handle:
        the runtime may reset both for a successor on the same regions, and
        a destroyed domain must give no path into that successor's memory.
        """
        memory = self.heap, self.stack
        self.heap = self.stack = self.entry_handle = None
        self.state = _DESTROYED
        return memory

    # ------------------------------------------------------------------
    # Discard (the "D" in SDRaD)
    # ------------------------------------------------------------------

    def discard(self) -> int:
        """Reset heap and stack to a pristine state; returns pages scrubbed.

        This is deliberately *not* a snapshot restore: SDRaD's insight is
        that abandoning the domain's allocations and unwinding its stack is
        sufficient (and orders of magnitude cheaper) because domain state is
        reconstructed from the trusted side on the next entry.
        """
        scrub = self.scrub_on_discard
        lazy = scrub and self.lazy_scrub
        pages = self.heap.reset(scrub=scrub, lazy=lazy)
        self.stack.unwind_all()
        if scrub:
            if lazy:
                self.stack.scrub_pending = True
            else:
                self.space.raw_fill(self.stack_base, self.stack_size, 0)
                pages += (self.stack_size + 4095) // 4096
        self.state = _INITIALIZED
        self.stats.rewinds += 1
        return pages

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_isolated_heap(self) -> bool:
        return not self.nonisolated_heap

    @property
    def rewinds_on_fault(self) -> bool:
        return self.return_to_parent

    def footprint_bytes(self) -> int:
        """Total simulated memory owned by this domain."""
        return self.heap_size + self.stack_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Domain(udi={self.udi}, pkey={self.pkey}, "
            f"state={self.state.value}, entries={self.stats.entries})"
        )
