"""The SDRaD runtime: domain lifecycle, entry/exit, rewind-and-discard.

This is the reproduction of the paper's core contribution. The runtime owns
a simulated address space, hands out protection-key-tagged heap/stack
regions to *domains*, and executes application functions inside them:

1. **enter** — save the caller's PKRU and push an execution context (the
   ``sigsetjmp`` analogue), then write a PKRU granting access *only* to the
   domain's key (deny-by-default isolation in both directions);
2. **run** — the application function receives a :class:`DomainHandle` and
   does its work against the simulated memory (every access checked);
3. **exit** — restore PKRU, pop the context, charge the domain-switch cost;
4. **on fault** — classify the fault, consult the domain's recovery policy,
   and for SDRaD's rewind policy: *discard* the domain's heap and stack,
   charge the paper's 3.5 µs rewind cost, and return an error
   :class:`DomainResult` to the code that entered the domain — the process
   survives.

All latencies are charged to the shared virtual clock through the
:class:`~repro.sim.cost.CostModel`, never measured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.hub import Observability

from ..errors import (
    AllocationFailure,
    DomainNotFound,
    DomainStateError,
    SdradError,
    UnsupportedByBackend,
)
from ..memory.address_space import AddressSpace
from ..memory.allocator import FreeListAllocator, check_arena_size
from ..memory.backends import resolve_backend
from ..memory.layout import (
    DEFAULT_DOMAIN_HEAP,
    DEFAULT_DOMAIN_STACK,
    PAGE_SIZE,
    page_align_up,
)
from ..memory.mpk import PKEY_DEFAULT
from ..memory.stack import CallStack, check_stack_size, stack_seed
from ..sim.clock import VirtualClock
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..sim.rng import RngFactory
from .constants import ROOT_UDI, DomainFlags
from .context import ContextStack
from .detect import FaultReport, classify, is_recoverable
from .domain import _DESTROYED, _INITIALIZED, Domain, DomainStats
from .policy import (
    ProcessCrashed,
    RecoveryPolicy,
    RewindPolicy,
)


@dataclass
class DomainResult:
    """Outcome of one :meth:`SdradRuntime.execute` call (built positionally
    per entry; slots by hand, as ``dataclass(slots=True)`` needs 3.10)."""

    __slots__ = ("ok", "value", "fault", "retries", "recovery_time", "elapsed")

    ok: bool
    value: object
    fault: Optional[FaultReport]
    retries: int
    recovery_time: float
    elapsed: float

    def unwrap(self) -> object:
        """Return the value or raise the fault (test convenience)."""
        if self.ok:
            return self.value
        raise SdradError(f"domain call failed: {self.fault}")


class DomainHandle:
    """The view of the runtime an application function gets *inside* a domain.

    It deliberately exposes only domain-scoped operations: allocate/free on
    the domain heap, checked loads/stores, stack frames on the domain stack,
    and cost charging for modelled computation. There is no way to reach
    another domain's memory except through the checked access path — which
    is exactly what the isolation experiment needs to be able to *fail*.
    """

    def __init__(self, runtime: "SdradRuntime", domain: Domain) -> None:
        self._runtime = runtime
        self._domain = domain
        # Compiled checked window over the domain heap (the overwhelmingly
        # common target of handle I/O). PKRU-keyed: valid only while the
        # domain's PKRU is active, revalidated per access burst.
        self._plan = None

    def _heap_plan(self):
        plan = self._plan
        space = self._runtime.space
        if plan is not None and plan.cell[0] is space._tlb:
            return plan
        cache = space.plans
        if cache is None:
            return None
        domain = self._domain
        self._plan = cache.checked_plan(domain.heap_base, domain.heap_size, "rw")
        return self._plan

    @property
    def udi(self) -> int:
        return self._domain.udi

    @property
    def space(self) -> AddressSpace:
        return self._runtime.space

    # --- heap ---------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        self._runtime.charge(self._runtime.cost.domain_alloc)
        return self._domain.heap.malloc(nbytes)

    def free(self, addr: int) -> None:
        self._runtime.charge(self._runtime.cost.domain_alloc)
        self._domain.heap.free(addr)

    def capacity(self, addr: int) -> int:
        return self._domain.heap.payload_capacity(addr)

    # --- checked memory access (the application data path) -------------

    def store(self, addr: int, data: bytes) -> None:
        plan = self._heap_plan()
        if plan is not None:
            plan.store(addr, data)
        else:
            self._runtime.space.store(addr, data)

    def load(self, addr: int, nbytes: int) -> bytes:
        plan = self._heap_plan()
        if plan is not None:
            return plan.load(addr, nbytes)
        return self._runtime.space.load(addr, nbytes)

    def load_view(self, addr: int, nbytes: int) -> memoryview:
        """Checked zero-copy read (see :meth:`AddressSpace.load_view`)."""
        plan = self._heap_plan()
        if plan is not None:
            return plan.view(addr, nbytes)
        return self._runtime.space.load_view(addr, nbytes)

    # --- stack ----------------------------------------------------------

    def push_frame(self, name: str):
        return self._domain.stack.push_frame(name)

    def pop_frame(self, frame) -> int:
        return self._domain.stack.pop_frame(frame)

    # --- modelled computation -------------------------------------------

    def charge(self, seconds: float) -> None:
        """Charge modelled compute time to the virtual clock."""
        self._runtime.charge(seconds)


#: ``RewindPolicy`` is stateless, so every ``execute(policy=None)`` call can
#: share one instance instead of allocating a fresh policy per request.
_DEFAULT_REWIND_POLICY = RewindPolicy()

class _Parked(NamedTuple):
    """A retired domain's regions and key, still mapped and allocated.

    ``pkey`` is ``None`` under key virtualisation, whose keys the manager
    recycles itself (and which never parks past the retire).
    ``entry_gate`` is the retired domain's :attr:`Domain.entry_gate`: the
    same key derives the same value, so an adopting domain replays it.
    ``memory`` is its heap allocator and stack, which an adopting init
    resets in place (see :meth:`SdradRuntime._domain_memory`)."""

    pkey: Optional[int]
    heap_base: int
    heap_size: int
    stack_base: int
    stack_size: int
    entry_gate: Optional[tuple[int, int]]
    memory: tuple[FreeListAllocator, CallStack]


class SdradRuntime:
    """Owner of the address space, protection keys and all domains."""

    def __init__(
        self,
        space: Optional[AddressSpace] = None,
        clock: Optional[VirtualClock] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        rng: Optional[RngFactory] = None,
        root_heap_size: int = 1024 * 1024,
        key_virtualization: bool = False,
        guard_pages: bool = False,
        scrub_mode: str = "lazy",
        reentry_cache: bool = True,
        obs: Optional["Observability"] = None,
        backend: object = None,
        default_policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        if scrub_mode not in ("eager", "lazy"):
            raise SdradError(f"unknown scrub mode {scrub_mode!r}")
        # How SCRUB_ON_DISCARD domains pay for scrubbing: "lazy" (default)
        # defers the zero-fill to reallocation so rewind cost stays flat
        # regardless of domain size; "eager" scrubs at discard time (the
        # E2b ablation, and the mode to pick when stale bytes must not
        # survive the rewind even in unallocated space).
        self.scrub_mode = scrub_mode
        if space is not None:
            self.space = space
            # An explicit backend must agree with the space's: the space
            # owns the gate, so a conflicting request would be ignored.
            if backend is not None and (
                resolve_backend(backend).name != space.backend.name
            ):
                raise SdradError(
                    f"backend {resolve_backend(backend).name!r} conflicts "
                    f"with the address space's {space.backend.name!r}"
                )
        else:
            self.space = AddressSpace(
                backend=backend if backend is not None else "mpk"
            )
        #: The isolation substrate (see ``repro.memory.backends``).
        self.backend = self.space.backend
        self.clock = clock if clock is not None else VirtualClock()
        #: ``charge(seconds)``: advance the clock, return the new time. Every
        #: modelled cost goes through it, so it is the clock's own method.
        self.charge = self.clock.advance
        self.cost = cost
        # Per-operation substrate costs, resolved once: under the MPK
        # default these are the very same floats the runtime used to read
        # off the cost model inline, so charges are bit-identical.
        self._enter_cost = self.backend.entry_cost(cost)
        self._exit_cost = self.backend.exit_cost(cost)
        self._setup_cost = self.backend.setup_cost(cost)
        self._teardown_cost = self.backend.teardown_cost(cost)
        self._access_tax = self.backend.access_tax(cost)
        # Checked accesses already charged by an inner (nested) domain exit
        # — SFI instruments each access once, in the innermost sandbox.
        self._taxed_accesses = 0
        # Observability is strictly opt-in: with ``obs=None`` (the
        # default) every instrumented site below reduces to one attribute
        # load and a falsy check, keeping E1's overhead numbers intact
        # (the ``memcached_obs`` bench holds this to account).
        self.obs = obs
        self._obs_entries = None
        if obs is not None:
            obs.bind_clock(self.clock)
            # Resolved once: the per-entry counter is on the hottest path
            # in the runtime, and registry lookups resolve label kwargs.
            self._obs_entries = obs.registry.counter(
                "sdrad_domain_entries_total"
            )
        self.rng = rng if rng is not None else RngFactory(0)
        # What ``execute(policy=None)`` falls back to. The shared stateless
        # rewind singleton keeps the default path allocation-free and bit-
        # identical to the pre-policy-plumbing runtime; campaign closures
        # and the fleet driver swap in per-domain assignments here.
        self.default_policy = (
            default_policy if default_policy is not None else _DEFAULT_REWIND_POLICY
        )
        self.contexts = ContextStack()
        self._domains: dict[int, Domain] = {}
        # Destroyed domains' statistics, folded in at destroy so lifetime
        # totals survive ephemeral (per-request) domains.
        self.destroyed_stats = DomainStats()
        self.destroyed_count = 0
        self._udi_counter = itertools.count(1)
        # Page 0 stays unmapped forever: null-pointer dereferences must
        # fault, as on any sane mmap_min_addr configuration.
        self._bump = PAGE_SIZE
        # With guard pages on, one unmapped page separates consecutive
        # regions, so an overflow off the end of a domain's heap faults
        # instead of silently running into the *same domain's* stack (which
        # shares its protection key and would otherwise absorb it).
        self.guard_pages = guard_pages
        # Unmapped regions destroyed domains left behind, as (base, size).
        self._free_regions: list[tuple[int, int]] = []
        # Domain re-entry fast path: a domain's first isolated entry caches
        # the gate value it derives on the domain (``Domain.entry_gate``),
        # later entries replay it. ``reentry_cache=False`` restores the
        # always-derive behaviour bit for bit (the bench baseline).
        self.reentry_enabled = reentry_cache
        self.reentry_hits = 0
        self.reentry_misses = 0
        # The last retired domain's regions, key and memory, kept mapped and
        # allocated for the next init of the same shape (``domain_retire``).
        self._parked: Optional[_Parked] = None
        self._root = self._create_root_domain(root_heap_size)
        # Optional libmpk-style key virtualisation (lifts the 15-domain
        # limit at the cost of rebind retagging; see repro.sdrad.keyvirt).
        # It is an MPK-private concern: only a substrate with key scarcity
        # has anything to virtualise, so other backends reject the request
        # loudly instead of silently not virtualising.
        self.keys: Optional["VirtualKeyManager"] = None
        if key_virtualization:
            if not self.backend.supports_key_virtualization:
                raise UnsupportedByBackend(
                    f"key virtualization requires a key-scarce substrate "
                    f"(MPK); backend {self.backend.name!r} has unbounded "
                    f"domain tags and nothing to virtualise"
                )
            from .keyvirt import VirtualKeyManager

            self.keys = VirtualKeyManager(self)

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------

    def _create_root_domain(self, heap_size: int) -> Domain:
        heap_base = self._map_region(heap_size, PKEY_DEFAULT)
        stack_base = self._map_region(DEFAULT_DOMAIN_STACK, PKEY_DEFAULT)
        heap, stack = self._domain_memory(
            ROOT_UDI,
            heap_base,
            page_align_up(heap_size),
            stack_base,
            DEFAULT_DOMAIN_STACK,
        )
        root = Domain(
            udi=ROOT_UDI,
            pkey=PKEY_DEFAULT,
            space=self.space,
            heap=heap,
            stack=stack,
            flags=DomainFlags.DEFAULT,
            parent_udi=None,
            lazy_scrub=self.scrub_mode == "lazy",
        )
        self._domains[ROOT_UDI] = root
        return root

    @property
    def root(self) -> Domain:
        return self._root

    def domain(self, udi: int) -> Domain:
        try:
            return self._domains[udi]
        except KeyError:
            raise DomainNotFound(udi) from None

    def domains(self) -> list[Domain]:
        return list(self._domains.values())

    def domain_init(
        self,
        flags: DomainFlags = DomainFlags.RETURN_TO_PARENT,
        heap_size: int = DEFAULT_DOMAIN_HEAP,
        stack_size: int = DEFAULT_DOMAIN_STACK,
        udi: Optional[int] = None,
        parent_udi: int = ROOT_UDI,
    ) -> Domain:
        """Create an isolated domain (``sdrad_init`` analogue).

        Charges the pkey syscalls and heap-arena initialisation to the
        clock; raises :class:`~repro.errors.OutOfDomains` when all 16
        protection keys are taken. Sizes the heap allocator or the stack
        would refuse are rejected before anything is taken: no udi, key,
        region or virtual time.

        A domain retired by :meth:`domain_retire` is adopted when settling
        it would hand exactly its regions and key to this init: then
        nothing is unmapped, freed, allocated or mapped, and the domain
        gets the same addresses, key, bytes and charges it would have got.
        It also takes over what its predecessor derived for that key and
        those regions: the entry gate value (:attr:`Domain.entry_gate`)
        and, through the parked allocator and stack, their access plans.
        Any other init settles the parked domain first.
        """
        heap_size = page_align_up(heap_size)
        stack_size = page_align_up(stack_size)
        check_arena_size(heap_size)
        check_stack_size(stack_size)
        if udi is None:
            # Skip udis an explicit caller already took.
            udi = next(self._udi_counter)
            while udi in self._domains:
                udi = next(self._udi_counter)
        elif udi in self._domains:
            raise DomainStateError(f"domain udi={udi} already exists")
        if parent_udi not in self._domains:
            raise DomainNotFound(parent_udi)
        parked = self._parked
        if parked is not None and self._adoptable(parked, heap_size, stack_size):
            self._parked = None
            pkey, heap_base, _, stack_base, _, entry_gate, memory = parked
        else:
            self._settle()
            pkey, heap_base, stack_base = self._map_domain(heap_size, stack_size)
            entry_gate = memory = None
        # Substrate setup syscalls (pkey_alloc + two pkey_mprotect on MPK,
        # capability derivation on CHERI, mask install on SFI) + heap arena.
        self.charge(self._setup_cost + self.cost.domain_heap_init)
        heap, stack = self._domain_memory(
            udi, heap_base, heap_size, stack_base, stack_size, memory
        )
        domain = Domain(
            udi=udi,
            pkey=pkey,
            space=self.space,
            heap=heap,
            stack=stack,
            flags=flags,
            parent_udi=parent_udi,
            lazy_scrub=self.scrub_mode == "lazy",
            entry_gate=entry_gate,
        )
        self._domains[udi] = domain
        if self.obs is not None:
            self.obs.registry.counter("sdrad_domains_created_total").increment()
        return domain

    def _adoptable(self, parked: _Parked, heap_size: int, stack_size: int) -> bool:
        """Whether settling ``parked`` and then reserving ``heap_size`` and
        ``stack_size`` would yield exactly its regions and key: the same
        sizes, no free region of either size ahead of them in the free
        list, and no free key below its key."""
        if parked.heap_size != heap_size or parked.stack_size != stack_size:
            return False
        for _, size in self._free_regions:
            if size == heap_size or size == stack_size:
                return False
        return self.space.pkeys.would_reissue(parked.pkey)

    def _map_domain(self, heap_size: int, stack_size: int) -> tuple[int, int, int]:
        """Take a key and map heap and stack regions for a new domain;
        returns ``(pkey, heap_base, stack_base)``."""
        if self.keys is not None:
            # Virtualised: pages start on the lock key, binding is lazy.
            pkey = self.keys.assign_initial_key()
        else:
            pkey = self.space.pkeys.alloc()
        # Reserve both regions before mapping either, so a stack that does
        # not fit rolls the heap's reservation back instead of leaking it.
        bump = self._bump
        heap_base, heap_slot = self._reserve_region(heap_size)
        try:
            stack_base, _ = self._reserve_region(stack_size)
        except AllocationFailure:
            if heap_slot < 0:
                self._bump = bump
            else:
                self._free_regions.insert(heap_slot, (heap_base, heap_size))
            if self.keys is None:
                self.space.pkeys.free(pkey)
            raise
        # One range update when heap and stack are adjacent (no guard page).
        table = self.space.page_table
        if heap_base + heap_size == stack_base:
            table.map_range(heap_base, heap_size + stack_size, pkey=pkey)
        else:
            table.map_range(heap_base, heap_size, pkey=pkey)
            table.map_range(stack_base, stack_size, pkey=pkey)
        return pkey, heap_base, stack_base

    def _domain_memory(
        self,
        udi: int,
        heap_base: int,
        heap_size: int,
        stack_base: int,
        stack_size: int,
        memory: Optional[tuple[FreeListAllocator, CallStack]] = None,
    ) -> tuple[FreeListAllocator, CallStack]:
        """Heap allocator and stack for domain ``udi`` on these regions.

        ``memory``, the pair an adopted retired domain left on exactly these
        regions, is reset in place (``reset_full``: the allocator and stack
        reset that rewind uses, plus a fresh name, canary seed and
        counters); otherwise a new pair is built. Either way the domain
        sees the same bytes, counters and virtual time. A reset pair keeps
        its plan references, which check themselves on every use, so it
        makes fewer plan-cache lookups (``plans.hits``) than a new pair
        would.
        """
        name = f"domain-{udi}-heap"
        seed = stack_seed(self.rng.root_seed, udi)
        if memory is None:
            return (
                FreeListAllocator(self.space, heap_base, heap_size, name=name),
                CallStack(self.space, stack_base, stack_size, seed),
            )
        heap, stack = memory
        heap.reset_full(name)
        stack.reset_full(seed)
        return memory

    def domain_destroy(self, udi: int) -> None:
        """Tear a domain down and recycle its key and regions: a retire
        whose regions are unmapped and key freed at once."""
        self.domain_retire(udi)
        self._settle()

    def domain_retire(self, udi: int) -> None:
        """Tear a domain down, handing its regions and key to the next init.

        Everything :meth:`domain_destroy` does to the domain happens here,
        in the same order and at the same charges: the domain lets go of
        its allocator, stack and entry handle, its stats are folded into
        :attr:`destroyed_stats` and the teardown is charged. The rest of a
        destroy — unmapping the regions, returning them to the free list
        and freeing the key — is deferred to a *settle*. The retired
        domain's shape, entry gate value and memory wait in one parked
        slot:

        * the next :meth:`domain_init` adopts it when settling would hand
          that init exactly these regions and this key (same sizes, no
          free region or lower key ahead of them), skipping the unmap,
          ``pkey_free``, ``pkey_alloc`` and map a per-request lifecycle
          would otherwise repeat;
        * any other init, any region reservation, a further retire and
          :meth:`domain_destroy` settle it first, in the order a destroy
          would have, so addresses and keys are exactly a destroy's.

        The model treats a retired domain as destroyed:
        :func:`~repro.sdrad.telemetry.snapshot` reports its regions as
        unmapped (:meth:`mapped_bytes`). Its pages keep their key while
        parked, and the key stays allocated, so no other domain can be
        granted it: a stale pointer into a parked region faults with the
        backend's gate violation (a protection-key fault) rather than the
        :class:`~repro.errors.SegmentationFault` an unmapped page raises.

        Only regions exactly as their init mapped them are parked. Under
        key virtualisation, or when a region was remapped, retagged or
        protected since its init, a retire is a destroy: nothing parks.
        """
        domain = self._domains.get(udi)
        if domain is None:
            raise DomainNotFound(udi)
        if udi == ROOT_UDI:
            raise SdradError("cannot destroy the root domain")
        if self.contexts.entries and self.contexts.contains_udi(udi):
            raise DomainStateError(f"domain {udi} is currently entered")
        if self._parked is not None:
            self._settle()  # at most one parked shape
        heap_base, heap_size = domain.heap_base, domain.heap_size
        stack_base, stack_size = domain.stack_base, domain.stack_size
        # Park only what the next init would map: key virtualisation
        # recycles keys itself, and a region remapped, retagged or
        # protected since its init is not what an init leaves. Anything
        # else is unmapped first, as a destroy always did (a region that
        # someone unmapped fails here, before anything is torn down).
        table = self.space.page_table
        if self.keys is not None:
            park = False
        elif heap_base + heap_size == stack_base:
            park = table.is_mapped_as(heap_base, heap_size + stack_size, domain.pkey)
        else:
            park = table.is_mapped_as(
                heap_base, heap_size, domain.pkey
            ) and table.is_mapped_as(stack_base, stack_size, domain.pkey)
        if not park:
            self._unmap(heap_base, heap_size, stack_base, stack_size)
        if self.keys is not None:
            self.keys.release_domain(domain)
            pkey = None
        else:
            pkey = domain.pkey
        memory = domain.mark_destroyed()
        del self._domains[udi]
        self.destroyed_stats.absorb(domain.stats)
        self.destroyed_count += 1
        self.charge(self._teardown_cost)
        if self.obs is not None:
            self.obs.registry.counter("sdrad_domains_destroyed_total").increment()
        self._parked = tuple.__new__(
            _Parked,
            (
                pkey, heap_base, heap_size, stack_base, stack_size,
                domain.entry_gate, memory,
            ),
        )
        if not park:
            self._settle(unmap=False)

    def _settle(self, unmap: bool = True) -> None:
        """Finish the parked retire, if any, as a destroy would have: unmap
        its regions (unless the retire already did), so a stale pointer
        into them faults, return them to the free list for the next
        reservation, free the key and drop the memory."""
        parked = self._parked
        if parked is None:
            return
        pkey, heap_base, heap_size, stack_base, stack_size, _, _ = parked
        if unmap:
            self._unmap(heap_base, heap_size, stack_base, stack_size)
        self._free_regions += ((heap_base, heap_size), (stack_base, stack_size))
        if pkey is not None:
            self.space.pkeys.free(pkey)
        self._parked = None

    def _unmap(
        self, heap_base: int, heap_size: int, stack_base: int, stack_size: int
    ) -> None:
        # One range update when heap and stack are adjacent (no guard page).
        table = self.space.page_table
        if heap_base + heap_size == stack_base:
            table.unmap_range(heap_base, heap_size + stack_size)
        else:
            table.unmap_range(heap_base, heap_size)
            table.unmap_range(stack_base, stack_size)

    def mapped_bytes(self) -> int:
        """Bytes the model has mapped: the page table's count less a parked
        domain's regions, which the model has already unmapped."""
        mapped = self.space.page_table.mapped_bytes()
        parked = self._parked
        if parked is not None:
            mapped -= parked.heap_size + parked.stack_size
        return mapped

    def set_domain_flags(self, udi: int, flags: DomainFlags) -> None:
        """Change a domain's containment-policy flags (``sdrad_configure``).

        Policy flags decide what an entry must set up and what an exit must
        verify (heap sharing, exit-time heap sweep, scrub mode). Every entry
        reads them live, and the gate value an entry caches
        (:attr:`Domain.entry_gate`) depends on the domain's key alone, so a
        change takes effect at the next entry with nothing to invalidate.
        A domain cannot be reconfigured while it is entered.
        """
        domain = self.domain(udi)
        if self.contexts.entries and self.contexts.contains_udi(udi):
            raise DomainStateError(
                f"cannot change flags of domain {udi} while it is entered"
            )
        domain.flags = flags

    # ------------------------------------------------------------------
    # The core: execute-in-domain with rewind on fault
    # ------------------------------------------------------------------

    def execute(
        self,
        udi: int,
        fn: Callable[..., object],
        *args: object,
        policy: Optional[RecoveryPolicy] = None,
        read_grants: Optional[list[int]] = None,
    ) -> DomainResult:
        """Run ``fn(handle, *args)`` inside domain ``udi``.

        Returns a :class:`DomainResult`; never raises for *recoverable*
        memory faults when the policy rewinds. Logic errors (non-memory
        exceptions) propagate unchanged after trusted state is restored.

        ``read_grants`` lists other domains whose memory this execution may
        *read* (never write) — SDRaD's confidentiality-compartment scheme:
        a "vault" domain holds secrets or shared configuration, workers get
        read-only, zero-copy access for the duration of one entry, and a
        compromised worker still cannot tamper with it.
        """
        domain = self._domains.get(udi)
        if domain is None:
            raise DomainNotFound(udi)
        if domain.state is _DESTROYED:
            raise DomainStateError(f"domain {udi} is destroyed")
        contexts = self.contexts
        if contexts.entries and contexts.contains_udi(udi):
            raise DomainStateError(f"domain {udi} re-entered while active")
        if policy is None:
            policy = self.default_policy

        granted_domains: Optional[list[Domain]] = None
        if read_grants:
            granted_domains = []
            for grant_udi in read_grants:
                if grant_udi == udi:
                    raise SdradError("cannot read-grant a domain to itself")
                granted_domains.append(self.domain(grant_udi))

        started = self.clock.now
        if self.keys is not None:
            self.keys.ensure_bound(domain)
            for granted in granted_domains or ():
                self.keys.ensure_bound(granted)
            parent = self._domains.get(domain.parent_udi or ROOT_UDI)
            if (
                domain.nonisolated_heap
                and parent is not None
                and parent.udi != ROOT_UDI
            ):
                self.keys.ensure_bound(parent)
        entered = self.charge(self._enter_cost)
        gate = self.space.gate
        saved_gate = gate.snapshot()
        # SFI's per-access tax anchors: checked accesses between here and
        # the matching leave are charged at exit (minus any already taxed
        # by nested entries). Zero-tax substrates never read these.
        access_mark = taxed_mark = 0
        if self._access_tax:
            access_mark = self.space.loads + self.space.stores
            taxed_mark = self._taxed_accesses
        context = contexts.push(udi, saved_gate, entered)
        # Re-entry fast path: an entry closes the gate and grants the
        # domain's key alone, so it derives the same gate value from any
        # caller. The domain's first entry derives it (or replays what its
        # adopted predecessor derived) and keeps it with one reusable
        # handle; later entries replay it. Entries with read grants or a
        # shared parent heap depend on *other* domains' tags too and stay
        # on the slow path.
        if (
            self.reentry_enabled
            and granted_domains is None
            and not domain.nonisolated_heap
        ):
            entry_gate = domain.entry_gate
            if entry_gate is None:
                writes_before = gate.writes
                self._apply_domain_gate(domain)
                domain.entry_gate = (gate.value, gate.writes - writes_before)
            else:
                value, writes = entry_gate
                gate.write_prepared(value, writes)
            handle = domain.entry_handle
            if handle is None:
                handle = domain.entry_handle = DomainHandle(self, domain)
                self.reentry_misses += 1
            else:
                self.reentry_hits += 1
        else:
            self._apply_domain_gate(domain)
            for granted in granted_domains or ():
                gate.grant(granted.pkey, read=True, write=False)
            handle = DomainHandle(self, domain)
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.start_span("domain.execute", udi=udi)
            self._obs_entries._value += 1  # Counter.increment(), inlined

        attempt = 0
        recovery_time = 0.0
        while True:
            domain.mark_active()
            try:
                value = fn(handle, *args)
                if domain.check_heap_on_exit:
                    domain.heap.check()
            except BaseException as exc:  # noqa: BLE001 - boundary must see all
                attempt += 1
                report, retry, recovery_time = self._recover(
                    exc, domain, policy, attempt, span, recovery_time,
                    context, saved_gate, access_mark, taxed_mark,
                )
                if retry:
                    continue
                left = self._leave(context, saved_gate, access_mark, taxed_mark)
                if obs is not None:
                    obs.end_span(span, "fault", retries=attempt - 1)
                return DomainResult(
                    False, None, report, attempt - 1, recovery_time, left - started
                )
            else:
                domain.mark_exited()
                left = self._leave(context, saved_gate, access_mark, taxed_mark)
                if obs is not None:
                    obs.end_span(span, "ok")
                return DomainResult(
                    True, value, None, attempt, recovery_time, left - started
                )

    def _recover(
        self, exc: BaseException, domain: Domain, policy: RecoveryPolicy,
        attempt: int, span: object, recovery_time: float, *leave: object,
    ) -> tuple[FaultReport, bool, float]:
        """:meth:`execute`'s fault path for the ``attempt``-th run of its body.

        A logic error and a fault the policy aborts on leave the domain
        (``_leave(*leave)``) and raise. Any other fault is classified,
        recorded and rewound: returns its report, whether the policy retries
        (staying in the domain) and ``recovery_time`` plus the recovery."""
        obs = self.obs
        if not is_recoverable(exc):
            # Logic error: restore trusted state, propagate. Nothing runs
            # in the domain any more, but it did not exit cleanly.
            domain.state = _INITIALIZED
            self._leave(*leave)
            if obs is not None:
                obs.end_span(span, status="error")
            raise exc
        report = classify(exc, domain_udi=domain.udi, timestamp=self.clock.now)
        domain.mark_faulted()
        mechanism = report.mechanism.value
        domain.stats.record_fault(mechanism)
        if obs is not None:
            obs.event("domain.fault", attempt=attempt, **report.span_attrs())
            obs.registry.counter(
                "sdrad_domain_faults_total", mechanism=mechanism
            ).increment()
        decision = policy.decide(report, attempt)
        if decision.abort:
            self._leave(*leave)
            if obs is not None:
                obs.registry.counter(
                    "sdrad_crashes_total", mechanism=mechanism
                ).increment()
                obs.end_span(span, status="crash")
            raise ProcessCrashed(report) from exc
        recovery_time += self._rewind(domain, cause=mechanism)
        if decision.retry:
            domain.stats.retries += 1
            if decision.backoff > 0.0:
                self.charge(decision.backoff)
                recovery_time += decision.backoff
        return report, decision.retry, recovery_time

    def execute_with_checkpoint(
        self,
        udi: int,
        fn: Callable[..., object],
        *args: object,
    ) -> DomainResult:
        """Alternative recovery design: checkpoint/restore instead of
        rewind-and-discard (ablation of DESIGN.md D2/D3).

        Before entering the domain, its heap and stack are snapshotted; a
        fault restores the snapshot byte-for-byte instead of discarding.
        This preserves domain state across faults (which discard does not),
        but pays a copy of the whole domain *on every call* — the design
        SDRaD explicitly rejected, quantified by E2c.
        """
        from ..memory.snapshot import capture, restore

        domain = self.domain(udi)
        footprint = domain.heap_size + domain.stack_size
        # checkpoint: allocator mirror state first (exporting retires any
        # deferred free, which writes boundary tags), then heap + stack
        # bytes, so the byte snapshot matches the exported metadata.
        heap_state = domain.heap.export_state()
        heap_snap = capture(self.space, domain.heap_base, domain.heap_size)
        stack_snap = capture(self.space, domain.stack_base, domain.stack_size)
        self.charge(self.cost.copy_time(footprint))

        result = self.execute(udi, fn, *args, policy=RewindPolicy())
        if result.ok:
            return result
        # restore: copy the checkpoint back and charge it as recovery
        before = self.clock.now
        restore(self.space, heap_snap)
        restore(self.space, stack_snap)
        domain.heap.import_state(heap_state)
        self.charge(self.cost.copy_time(footprint))
        result.recovery_time += self.clock.now - before
        return result

    def execute_unisolated(self, fn: Callable[..., object], *args: object) -> object:
        """Run ``fn(handle, *args)`` in the root compartment, no isolation.

        This is the *baseline* execution mode (E1's control): no PKRU
        switch, no enter/exit cost, no rewind context. A recoverable memory
        fault therefore has nothing to contain it and kills the process —
        exactly what happens to a mitigation-hardened but un-compartmented
        service.
        """
        handle = DomainHandle(self, self._root)
        try:
            return fn(handle, *args)
        except BaseException as exc:  # noqa: BLE001 - boundary must see all
            if not is_recoverable(exc):
                raise
            report = classify(exc, domain_udi=ROOT_UDI, timestamp=self.clock.now)
            if self.obs is not None:
                self.obs.event("process.crash", **report.span_attrs())
                self.obs.registry.counter(
                    "sdrad_crashes_total", mechanism=report.mechanism.value
                ).increment()
            raise ProcessCrashed(report) from exc

    def _rewind(self, domain: Domain, cause: str = "fault") -> float:
        """Discard the domain and charge rewind cost; returns that cost."""
        before = self.clock.now
        pages = domain.discard()
        self.charge(self.cost.rewind_time(scrub_pages=pages))
        obs = self.obs
        if obs is not None:
            elapsed = self.clock.now - before
            # Every rewind span carries its cause (the detection mechanism
            # that fired) and its simulated duration — the per-recovery
            # record the sustainability ledger and E-series audits consume.
            obs.event(
                "domain.rewind",
                udi=domain.udi,
                cause=cause,
                duration=elapsed,
                scrubbed_pages=pages,
            )
            obs.registry.counter("sdrad_rewinds_total", cause=cause).increment()
            obs.registry.histogram("sdrad_rewind_latency_seconds").observe(elapsed)
        return self.clock.now - before

    def _leave(
        self, context, saved_gate: int, access_mark: int = 0, taxed_mark: int = 0
    ) -> float:
        """Leave an entry; returns the virtual time after its charges."""
        self.contexts.pop(context)
        space = self.space
        space.gate.write(saved_gate)
        now = self.charge(self._exit_cost)
        if self._access_tax:
            # SFI: charge the instrumentation tax for every checked access
            # executed inside this entry that an inner entry has not
            # already paid for (an access is masked exactly once).
            fresh = (space.loads + space.stores - access_mark) - (
                self._taxed_accesses - taxed_mark
            )
            if fresh > 0:
                now = self.charge(fresh * self._access_tax)
                self._taxed_accesses += fresh
        return now

    def _apply_domain_gate(self, domain: Domain) -> None:
        """Grant access only to the domain's tag (plus shared-heap parents).

        On MPK this is the historical three-WRPKRU entry sequence (deny
        all, revoke key 0, grant the domain key); ``close_all`` folds the
        first two so the same code drives a capability install (CHERI) or
        a mask setup (SFI) through the generic gate protocol.
        """
        gate = self.space.gate
        # Close the gate entirely — the caller's memory (root included)
        # must be unreachable from inside the domain — then grant only the
        # domain's own tag.
        gate.close_all()
        gate.grant(domain.pkey, read=True, write=True)
        if domain.nonisolated_heap and domain.parent_udi is not None:
            parent = self._domains.get(domain.parent_udi)
            if parent is not None:
                gate.grant(parent.pkey, read=True, write=True)
        # The gate writes above are the switch instructions of a real
        # entry; their latency is part of the backend's entry cost, not
        # charged per write.

    # Shared service state lives in the root compartment whose tag is 0 on
    # every backend (MPK pkey 0, CHERI/SFI root tag) — backend-neutral.
    def map_shared_region(self, size: int, pkey: int = PKEY_DEFAULT) -> int:  # sdradlint: ignore[R6]
        """Map a page-aligned region outside any domain (service state).

        Applications use this for long-lived state that survives domain
        rewinds — e.g. the Memcached hash table and slab arena, which SDRaD
        keeps in the trusted/root compartment precisely so that discarding
        a client's domain never touches it.
        """
        return self._map_region(size, pkey)

    # ------------------------------------------------------------------
    # Cross-domain data movement (used by SDRaD-FFI marshalling)
    # ------------------------------------------------------------------

    def _ffi_plan(self, domain: Domain):
        """Kernel plan over a domain's heap for FFI marshalling I/O."""
        cache = self.space.plans
        if cache is None:
            return None
        return cache.kernel_plan(domain.heap_base, domain.heap_size)

    def copy_into(self, udi: int, data: bytes) -> int:
        """Copy ``data`` into ``udi``'s heap; returns the domain address."""
        domain = self.domain(udi)
        addr = domain.heap.malloc(max(len(data), 1))
        plan = self._ffi_plan(domain)
        if plan is not None:
            plan.store(addr, data)
        else:
            self.space.raw_store(addr, data)
        self.charge(self.cost.domain_alloc + self.cost.copy_time(len(data)))
        domain.stats.bytes_copied_in += len(data)
        return addr

    def copy_out(self, udi: int, addr: int, nbytes: int) -> bytes:
        """Copy ``nbytes`` out of ``udi``'s heap into the trusted side."""
        domain = self.domain(udi)
        plan = self._ffi_plan(domain)
        if plan is not None:
            data = plan.load(addr, nbytes)
        else:
            data = self.space.raw_load(addr, nbytes)
        self.charge(self.cost.copy_time(nbytes))
        domain.stats.bytes_copied_out += nbytes
        return data

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------

    def _map_region(self, size: int, pkey: int) -> int:
        size = page_align_up(size)
        self._settle()
        base, _ = self._reserve_region(size)
        self.space.page_table.map_range(base, size, pkey=pkey)
        return base

    def _reserve_region(self, size: int) -> tuple[int, int]:
        """Base for ``size`` page-aligned bytes, not yet mapped: an
        exact-size freed region first, then the bump pointer. Also returns
        the free-list slot the region came from (-1: the bump pointer), so
        a caller can put it back."""
        free_regions = self._free_regions
        for slot, (base, region_size) in enumerate(free_regions):
            if region_size == size:
                del free_regions[slot]
                return base, slot
        base = self._bump
        guard = PAGE_SIZE if self.guard_pages else 0
        if base + size + guard > self.space.size:
            raise AllocationFailure(
                f"simulated address space exhausted mapping {size} bytes "
                f"({self._bump}/{self.space.size} used)"
            )
        self._bump += size + guard  # the guard page stays unmapped
        return base, -1

