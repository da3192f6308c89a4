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

from ..errors import DomainStateError
from ..memory.address_space import AddressSpace
from ..memory.allocator import FreeListAllocator
from ..memory.stack import CallStack
from .constants import DomainFlags, DomainState

_NONISOLATED_HEAP = int(DomainFlags.NONISOLATED_HEAP)
_CHECK_HEAP_ON_EXIT = int(DomainFlags.CHECK_HEAP_ON_EXIT)
_SCRUB_ON_DISCARD = int(DomainFlags.SCRUB_ON_DISCARD)
_RETURN_TO_PARENT = int(DomainFlags.RETURN_TO_PARENT)


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
        for kind, count in other.fault_kinds.items():
            self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + count


class Domain:
    """One isolated execution domain (SDRaD's unit of rewind)."""

    def __init__(
        self,
        udi: int,
        pkey: int,
        space: AddressSpace,
        heap_base: int,
        heap_size: int,
        stack_base: int,
        stack_size: int,
        flags: DomainFlags = DomainFlags.DEFAULT,
        parent_udi: int | None = None,
        *,
        stack_seed: int,
        lazy_scrub: bool = False,
    ) -> None:
        self.udi = udi
        self.pkey = pkey
        self.space = space
        self.flags = flags  # property setter caches the per-flag booleans
        self.parent_udi = parent_udi
        #: When true, ``SCRUB_ON_DISCARD`` defers the zero-fill to
        #: reallocation time (scrub-on-reallocate): discard cost stays flat
        #: regardless of domain size. The eager mode remains for E2b.
        self.lazy_scrub = lazy_scrub
        self.state = DomainState.INITIALIZED
        self.heap_base = heap_base
        self.heap_size = heap_size
        self.stack_base = stack_base
        self.stack_size = stack_size
        self.heap = FreeListAllocator(
            space, heap_base, heap_size, name=f"domain-{udi}-heap"
        )
        self.stack = CallStack(space, stack_base, stack_size, stack_seed)
        self.stats = DomainStats()
        #: Virtual timestamp before which a quarantine policy asked callers
        #: not to re-enter this domain (0.0 = never quarantined).
        self.quarantined_until = 0.0

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
        # this setter (the runtime's ``set_domain_flags`` does, and also
        # invalidates entry tickets).
        self._flags = value
        bits = int(value)
        self.nonisolated_heap = bool(bits & _NONISOLATED_HEAP)
        self.check_heap_on_exit = bool(bits & _CHECK_HEAP_ON_EXIT)
        self.scrub_on_discard = bool(bits & _SCRUB_ON_DISCARD)
        self.return_to_parent = bool(bits & _RETURN_TO_PARENT)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def mark_active(self) -> None:
        if self.state is DomainState.DESTROYED:
            raise DomainStateError(f"domain {self.udi} is destroyed")
        self.state = DomainState.ACTIVE
        self.stats.entries += 1

    def mark_exited(self) -> None:
        if self.state is not DomainState.ACTIVE:
            raise DomainStateError(
                f"domain {self.udi} exit while in state {self.state.value}"
            )
        self.state = DomainState.INITIALIZED
        self.stats.clean_exits += 1

    def mark_faulted(self) -> None:
        self.state = DomainState.FAULTED

    def mark_destroyed(self) -> None:
        self.state = DomainState.DESTROYED

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
        self.state = DomainState.INITIALIZED
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
