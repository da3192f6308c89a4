"""Protection-key virtualisation (libmpk-style), lifting the 15-domain limit.

MPK provides 16 protection keys; SDRaD reserves one, so at most 15 domains
can be *concurrently* isolated — a real limitation for per-connection
compartmentalisation of a busy server. The paper cites libmpk (Park et al.,
ATC'19), which virtualises keys: domains get unlimited *virtual* keys, and a
small pool of *physical* keys is bound to them on demand, like a TLB.

Mechanism reproduced here:

* one physical key is reserved as the **lock key**: no PKRU ever grants it,
  so pages tagged with it are unreachable from any domain;
* a domain whose virtual key is *bound* has its pages tagged with the bound
  physical key (normal operation);
* binding a domain when no physical key is free **evicts** the
  least-recently-entered bound domain: its pages are retagged to the lock
  key (it stays fully isolated — more isolated, in fact: even its own code
  can't run until rebinding);
* rebinding retags the domain's pages back to a physical key, paying
  ``pkey_mprotect`` syscalls plus a per-page cost — the libmpk eviction
  overhead experiment E9 measures exactly this.

The manager is optional: ``SdradRuntime(key_virtualization=True)`` enables
it, default behaviour (hard 15-domain limit) is unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import SdradError, UnsupportedByBackend
from ..memory.mpk import NUM_PKEYS, PKEY_DEFAULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .domain import Domain
    from .runtime import SdradRuntime


@dataclass
class KeyVirtStats:
    """Binding-activity counters (E9's dependent variables)."""

    binds: int = 0
    evictions: int = 0
    hits: int = 0  # entries that found the domain already bound
    pages_retagged: int = 0


class VirtualKeyManager:
    """Binds virtual domain keys onto the physical MPK key pool."""

    def __init__(self, runtime: "SdradRuntime") -> None:
        # Key virtualisation is MPK-backend-private: it exists to stretch
        # a scarce physical key pool, which other substrates do not have.
        # Constructing the manager over them must fail loudly, not quietly
        # manage an infinite pool (see repro.memory.backends).
        backend = runtime.space.backend
        if not backend.supports_key_virtualization:
            raise UnsupportedByBackend(
                f"VirtualKeyManager requires the MPK backend; "
                f"backend {backend.name!r} has unbounded domain tags"
            )
        self.runtime = runtime
        # Reserve the lock key out of the normal allocator so nothing else
        # ever grants it.
        self.lock_pkey = runtime.space.pkeys.alloc()
        # Remaining physical keys are managed here, not by the kernel
        # allocator: free the pool into our own structures.
        self._free_pkeys: list[int] = []
        for _ in range(NUM_PKEYS - 2):  # minus default, minus lock key
            self._free_pkeys.append(runtime.space.pkeys.alloc())
        #: udi -> bound physical key, ordered by recency (LRU first).
        self._bindings: "OrderedDict[int, int]" = OrderedDict()
        self.stats = KeyVirtStats()

    # ------------------------------------------------------------------
    # Domain lifecycle hooks
    # ------------------------------------------------------------------

    def assign_initial_key(self) -> int:
        """Key for a freshly created domain's pages.

        If a physical key is free the domain starts bound-on-first-entry;
        otherwise its pages start on the lock key and the first entry pays
        the rebind. Either way the *initial tag* is the lock key — binding
        happens lazily at entry, which keeps creation cheap.
        """
        return self.lock_pkey

    def release_domain(self, domain: "Domain") -> None:
        """Domain destroyed: return its physical key to the pool.

        This recycles a physical key outside the kernel allocator's view
        (no ``pkey_free`` fires), so the permission cache must be flushed
        here explicitly — the next ``ensure_bound`` may hand the same
        physical key to a different domain.
        """
        bound = self._bindings.pop(domain.udi, None)
        if bound is not None:
            self._free_pkeys.append(bound)
            self.runtime.space.tlb_flush()

    # ------------------------------------------------------------------
    # The bind path (called on every domain entry)
    # ------------------------------------------------------------------

    def ensure_bound(self, domain: "Domain") -> int:
        """Make sure ``domain`` holds a physical key; returns that key."""
        bound = self._bindings.get(domain.udi)
        if bound is not None:
            self._bindings.move_to_end(domain.udi)
            self.stats.hits += 1
            return bound
        if not self._free_pkeys:
            self._evict_one()
        pkey = self._free_pkeys.pop()
        self._retag_domain(domain, pkey)
        domain.pkey = pkey
        self._bindings[domain.udi] = pkey
        self._bindings.move_to_end(domain.udi)
        self.stats.binds += 1
        return pkey

    def _evict_one(self) -> None:
        """Evict the least-recently-entered bound domain to the lock key.

        Never evicts a domain that is (a) currently entered or (b) whose
        key is readable under the live PKRU — the latter covers read-granted
        vaults: recycling their key mid-grant would alias another domain's
        pages into the grantee's view.
        """
        pkru = self.runtime.space.pkru
        for udi, pkey in self._bindings.items():
            if self.runtime.contexts.contains_udi(udi):
                continue
            if self.runtime.contexts.depth > 0 and pkru.allows_read(pkey):
                continue  # live read grant (or active key) — not safe
            victim_udi = udi
            break
        else:
            raise SdradError(
                "all physical protection keys are held by live domain "
                "entries or grants; cannot evict"
            )
        pkey = self._bindings.pop(victim_udi)
        victim = self.runtime.domain(victim_udi)
        self._retag_domain(victim, self.lock_pkey)
        victim.pkey = self.lock_pkey
        self._free_pkeys.append(pkey)
        self.stats.evictions += 1

    def _retag_domain(self, domain: "Domain", pkey: int) -> None:
        """Retag every page of the domain's regions (``pkey_mprotect``).

        ``tag_range`` fires the page-table update hook, so cached access
        verdicts for the retagged pages are shot down automatically. The
        runtime's entry tickets are keyed on the domain, not on pages, so
        they need an explicit shootdown: a ticket prepared while this domain
        held its old key would grant that key — which may now tag someone
        else's pages — on the next re-entry.
        """
        self.runtime.invalidate_entry_tickets(domain=domain)
        table = self.runtime.space.page_table
        table.tag_range(domain.heap_base, domain.heap_size, pkey)
        table.tag_range(domain.stack_base, domain.stack_size, pkey)
        pages = (domain.heap_size + domain.stack_size) // 4096
        self.stats.pages_retagged += pages
        cost = self.runtime.cost
        self.runtime.charge(
            2 * cost.pkey_syscall + pages * cost.pkey_mprotect_per_page
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bound_domains(self) -> list[int]:
        return list(self._bindings)

    @property
    def free_physical_keys(self) -> int:
        return len(self._free_pkeys)

    def is_bound(self, udi: int) -> bool:
        return udi in self._bindings

    def hit_rate(self) -> float:
        total = self.stats.hits + self.stats.binds
        return self.stats.hits / total if total else 0.0


def reserved_keys() -> int:
    """Physical keys not available for domain binding (default + lock)."""
    return 2


__all__ = [
    "KeyVirtStats",
    "VirtualKeyManager",
    "reserved_keys",
    "PKEY_DEFAULT",
]
