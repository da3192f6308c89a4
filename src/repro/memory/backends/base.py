"""The domain-substrate interface every isolation backend implements.

SDRaD's protocol — enter a gate, check permissions on every access, rewind
and discard on fault — is substrate-independent: the paper builds it on
Intel MPK, the follow-on work re-implements it on ARM Morello capabilities
("Secure Rewind and Discard on ARM Morello") and the SFI literature gives a
third enforcement shape (masked addressing). This module factors the
substrate contract out of ``repro.memory`` / ``repro.sdrad`` so the layers
above are written once against :class:`IsolationBackend`:

* **gate** — the thread-local permission state (PKRU register, installed
  capability set, active SFI mask). All gates speak the same protocol:
  ``value``/``snapshot``/``write``/``write_prepared``/``grant``/``revoke``/
  ``close_all``/``allows_read``/``allows_write``, a ``writes`` counter and
  an ``on_write`` hook — exactly the surface the software TLB and the
  access plans key their coherency on, and the re-entry cache replays.
* **tag allocator** — the kernel-side bookkeeping of domain tags
  (``pkey_alloc`` for MPK, capability/region identifiers elsewhere), with
  the ``on_free`` recycling hook the permission cache flushes through.
* **verdict/violation factory** — the fault a denied access raises, so
  detection and recovery classify every backend's containment fault through
  the same :class:`~repro.errors.ProtectionKeyViolation` taxonomy.
* **cost hooks** — per-operation latencies resolved against the central
  :class:`~repro.sim.cost.CostModel`: entry/exit gate cost, domain
  setup/teardown syscalls, and (for SFI) a per-checked-access tax.
* **gate idiom table** — the spellings ``sdradlint`` R4 must treat as the
  substrate's privileged gate-write surface, declared *by the backend*
  instead of hard-coded in the analyzer.

The MPK implementation wraps the pre-existing simulated hardware unchanged
(:class:`~repro.memory.mpk.PkruRegister`/``PkeyAllocator``) and is the
default everywhere, bit-identical to the tree before this interface existed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from ...errors import OutOfDomains, SdradError

#: Tag 0 is the default/root tag on every substrate (MPK pkey 0, the
#: ambient root capability, the identity SFI region).
DEFAULT_TAG = 0


@dataclass(frozen=True)
class BackendLimits:
    """User-facing summary of a substrate's envelope (CLI ``backends``)."""

    name: str
    #: Maximum concurrently isolated domains; ``None`` means unbounded.
    max_domains: Optional[int]
    #: Gate cost of one domain round-trip (enter + exit), seconds.
    gate_cost: float
    #: Extra cost per checked load/store (SFI's instrumentation tax), seconds.
    per_access_tax: float
    #: Whether key virtualisation applies (only meaningful under scarcity).
    supports_key_virtualization: bool


@dataclass(frozen=True)
class GateIdiom:
    """What R4 should treat as this substrate's privileged write surface."""

    #: Classes whose own methods are the register micro-ops, not call sites.
    register_classes: frozenset
    #: Receiver spellings (exact segment, or ``*_<name>`` suffix) that
    #: resolve to the gate.
    receiver_names: frozenset
    #: Method names that mutate gate state.
    write_calls: frozenset


class GrantSetGate:
    """A generic permission gate: an interned set of granted tags.

    CHERI and SFI have no fixed-width rights register; their "gate" state is
    the set of capabilities installed / the active address mask — an
    arbitrary set of ``tag -> (read, write)`` grants. To stay drop-in for
    everything the MPK register plugs into (software-TLB keying by
    ``gate.value``, plan epochs, entry gate values a domain replays), each
    distinct grant set is **interned to a small integer**: ``value`` is that
    integer, ``snapshot``/``write`` save and restore it in O(1), and the
    ``on_write`` hook fires with it exactly like a WRPKRU.

    Unforgeability (CHERI's defining property) holds by construction:
    ``write`` only accepts values previously produced by this gate's own
    grant history — there is no bit pattern a compromised domain could
    conjure that the gate has not itself derived.
    """

    __slots__ = ("_value", "_closed", "writes", "on_write", "_interned", "_perm_maps")

    def __init__(self, default_tag: int = DEFAULT_TAG) -> None:
        self._interned: dict = {}
        self._perm_maps: list = []
        # Interned state 0: only the default tag accessible (read+write) —
        # the reset convention, mirroring PKRU's deny-all-except-default.
        self._value = self._intern(((default_tag, True),))
        # Interned state 1: nothing accessible (the closed gate a domain
        # entry starts from before granting the domain's own tag).
        self._closed = self._intern(())
        #: Count of gate writes (the substrate's WRPKRU analogue), feeding
        #: telemetry and cost accounting.
        self.writes = 0
        #: Mutation hook called with the new value after every write; the
        #: address space keeps its permission cache coherent through it.
        self.on_write = None

    def _intern(self, items) -> int:
        key = frozenset(items)
        value = self._interned.get(key)
        if value is None:
            value = len(self._perm_maps)
            self._interned[key] = value
            self._perm_maps.append(dict(items))
        return value

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value

    def write(self, value: int) -> None:
        """Install a previously derived grant set (the gate switch)."""
        if not 0 <= value < len(self._perm_maps):
            raise SdradError(
                f"gate value {value} was never derived by this gate "
                "(capabilities are unforgeable)"
            )
        self._value = value
        self.writes += 1
        if self.on_write is not None:
            self.on_write(value)

    def write_prepared(self, value: int, modelled_writes: int = 1) -> None:
        """Apply a pre-derived gate value in a single step.

        Same contract as :meth:`PkruRegister.write_prepared`: the re-entry
        fast path replays a derived value, and the ``writes`` counter must
        advance by the modelled instruction count so telemetry cannot tell
        replay from derivation.
        """
        if modelled_writes < 1:
            raise SdradError(
                f"write_prepared models {modelled_writes} gate writes; need >= 1"
            )
        if not 0 <= value < len(self._perm_maps):
            raise SdradError(
                f"gate value {value} was never derived by this gate "
                "(capabilities are unforgeable)"
            )
        self._value = value
        self.writes += modelled_writes
        if self.on_write is not None:
            self.on_write(value)

    def allows_read(self, tag: int) -> bool:
        return tag in self._perm_maps[self._value]

    def allows_write(self, tag: int) -> bool:
        return self._perm_maps[self._value].get(tag, False)

    def grant(self, tag: int, *, read: bool = True, write: bool = True) -> None:
        """Derive and install a new grant set (counts as one gate write)."""
        if tag < 0:
            raise SdradError(f"domain tag out of range: {tag}")
        perms = dict(self._perm_maps[self._value])
        if not read:
            perms.pop(tag, None)
        else:
            perms[tag] = bool(write)
        self.write(self._intern(tuple(sorted(perms.items()))))

    def revoke(self, tag: int) -> None:
        """Drop every right to ``tag`` (counts as one gate write)."""
        if tag < 0:
            raise SdradError(f"domain tag out of range: {tag}")
        perms = dict(self._perm_maps[self._value])
        perms.pop(tag, None)
        self.write(self._intern(tuple(sorted(perms.items()))))

    def close_all(self) -> None:
        """Install the empty grant set — the start of every domain entry."""
        self.write(self._closed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(value={self._value}, "
            f"grants={sorted(self._perm_maps[self._value])}, "
            f"writes={self.writes})"
        )


class TagAllocator:
    """Domain-tag bookkeeping for substrates without a 16-key ceiling.

    Mirrors :class:`~repro.memory.mpk.PkeyAllocator`'s contract — lowest
    free tag first, default tag reserved, an ``on_free`` recycling hook —
    but the tag space is bounded only by ``max_tags`` (``None`` = limited
    by address space, not by the substrate).
    """

    #: Soft ceiling for "unbounded" substrates — far above anything the
    #: simulated address space can map, present only to catch runaways.
    UNBOUNDED = 1 << 20

    def __init__(self, max_tags: Optional[int] = None) -> None:
        self.max_tags = max_tags
        self._ceiling = max_tags if max_tags is not None else self.UNBOUNDED
        self._allocated: set = {DEFAULT_TAG}
        self._next = DEFAULT_TAG + 1
        self._freed: list = []
        #: Hook called after a tag is freed (recycling shootdown).
        self.on_free = None

    @property
    def allocated(self) -> frozenset:
        return frozenset(self._allocated)

    @property
    def available(self) -> int:
        return self._ceiling - len(self._allocated)

    def alloc(self) -> int:
        """Allocate the lowest free tag."""
        if self._freed:
            tag = heapq.heappop(self._freed)
        elif self._next < self._ceiling:
            tag = self._next
            self._next += 1
        else:
            raise OutOfDomains(
                f"all {self._ceiling} domain tags in use"
            )
        self._allocated.add(tag)
        return tag

    def free(self, tag: int) -> None:
        if tag == DEFAULT_TAG:
            raise SdradError("cannot free the default domain tag")
        if tag not in self._allocated:
            raise SdradError(f"free of unallocated domain tag {tag}")
        self._allocated.remove(tag)
        heapq.heappush(self._freed, tag)
        if self.on_free is not None:
            self.on_free(tag)

    def is_allocated(self, tag: int) -> bool:
        return tag in self._allocated

    def would_reissue(self, tag: int) -> bool:
        """Whether ``free(tag)`` then ``alloc()`` would hand ``tag``
        straight back: no lower tag is free."""
        return not self._freed or self._freed[0] > tag


class IsolationBackend:
    """Abstract substrate: everything the runtime needs, nothing more.

    Subclasses override the class attributes and the factory/cost methods;
    the layers above (:class:`~repro.memory.address_space.AddressSpace`,
    :class:`~repro.sdrad.runtime.SdradRuntime`, the plan cache, the lint
    rules, the obs ledger) consume only this surface.
    """

    #: Stable identifier (``backend=`` constructor spelling).
    name = "abstract"
    #: Page-table tag ceiling (``None`` = any non-negative tag is valid).
    num_page_tags: Optional[int] = None
    #: The always-accessible root tag.
    default_tag = DEFAULT_TAG
    #: Concurrent-domain ceiling (``None`` = unbounded).
    max_domains: Optional[int] = None
    #: Whether libmpk-style key virtualisation applies to this substrate.
    supports_key_virtualization = False
    #: Steady-state relative runtime overhead the sustainability ledger
    #: attributes to this substrate's enforcement (fraction).
    runtime_overhead_hint = 0.03
    #: R4's idiom table entry for this substrate.
    idiom = GateIdiom(
        register_classes=frozenset({"GrantSetGate"}),
        receiver_names=frozenset({"gate"}),
        write_calls=frozenset(
            {"write", "write_prepared", "grant", "revoke", "close_all"}
        ),
    )

    # --- factories ------------------------------------------------------

    def create_gate(self):
        raise NotImplementedError

    def create_allocator(self):
        raise NotImplementedError

    def violation(self, address: int, tag: int, access: str) -> Exception:
        """The fault a gate-denied access raises."""
        raise NotImplementedError

    # --- per-operation cost hooks --------------------------------------

    def entry_cost(self, cost) -> float:
        """Clock charge for one domain entry (gate switch + bookkeeping)."""
        return 0.0

    def exit_cost(self, cost) -> float:
        """Clock charge for one domain exit."""
        return 0.0

    def setup_cost(self, cost) -> float:
        """Clock charge for creating a domain (tag + region syscalls)."""
        return 0.0

    def teardown_cost(self, cost) -> float:
        """Clock charge for destroying a domain."""
        return 0.0

    def access_tax(self, cost) -> float:
        """Extra charge per checked load/store executed inside a domain."""
        return 0.0

    # --- introspection --------------------------------------------------

    def limits(self, cost) -> BackendLimits:
        return BackendLimits(
            name=self.name,
            max_domains=self.max_domains,
            gate_cost=self.entry_cost(cost) + self.exit_cost(cost),
            per_access_tax=self.access_tax(cost),
            supports_key_virtualization=self.supports_key_virtualization,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
