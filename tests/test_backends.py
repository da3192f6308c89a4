"""Backend-equivalence suite: MPK, simulated CHERI and SFI substrates.

The SDRaD protocol is substrate-independent; these tests pin that down by
running the same containment, rewind and re-entry scenarios on every
registered :class:`~repro.memory.backends.IsolationBackend` and demanding
identical observable behaviour — plus the per-substrate specifics: MPK
bit-identity with the pre-backend tree, CHERI's unbounded domain scale,
SFI's per-access tax shape, and loud rejection of MPK-only APIs.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    OutOfDomains,
    ProtectionKeyViolation,
    SdradError,
    UnsupportedByBackend,
)
from repro.memory import GrantSetGate, TagAllocator, available_backends
from repro.memory.address_space import AddressSpace
from repro.sdrad.constants import DomainFlags
from repro.sdrad.keyvirt import VirtualKeyManager
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import consistency_check, snapshot
from repro.sim.cost import DEFAULT_COST_MODEL

ALL_BACKENDS = available_backends()


def plant_secret(h):
    addr = h.malloc(16)
    h.store(addr, b"victim secret")
    return addr


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestContainmentEquivalence:
    """E4's containment claim must hold on every substrate."""

    def test_cross_domain_store_contained(self, backend):
        runtime = SdradRuntime(backend=backend)
        victim = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        attacker = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        secret_addr = runtime.execute(victim.udi, plant_secret).value

        attack = runtime.execute(
            attacker.udi, lambda h: h.space.store(secret_addr, b"overwrite")
        )
        assert not attack.ok
        assert attack.fault.mechanism.value == "pkey-violation"

        intact = runtime.execute(
            victim.udi, lambda h: bytes(h.load(secret_addr, 13))
        )
        assert intact.value == b"victim secret"
        alive = runtime.execute(attacker.udi, lambda h: "alive")
        assert alive.value == "alive"
        assert consistency_check(runtime) == []

    def test_cross_domain_load_denied_too(self, backend):
        runtime = SdradRuntime(backend=backend)
        victim = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        spy = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        secret_addr = runtime.execute(victim.udi, plant_secret).value

        leak = runtime.execute(
            spy.udi, lambda h: h.space.load(secret_addr, 13)
        )
        assert not leak.ok
        assert leak.fault.mechanism.value == "pkey-violation"

    def test_violation_classifies_through_pkey_taxonomy(self, backend):
        # Detection/recovery key on ProtectionKeyViolation; every
        # substrate's fault must be a subclass carrying the denied tag.
        space = AddressSpace(size=1024 * 1024, backend=backend)
        tag = space.tags.alloc()
        space.page_table.map_range(0, 4096, pkey=tag)
        with pytest.raises(ProtectionKeyViolation) as exc:
            space.store(0, b"x")
        assert exc.value.pkey == tag
        assert exc.value.address == 0


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestRewindEquivalence:
    def test_rewind_discards_partial_writes(self, backend):
        runtime = SdradRuntime(backend=backend)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

        addr = runtime.execute(domain.udi, plant_secret).value

        def corrupt_then_escape(h):
            h.store(addr, b"half-done state")
            h.space.store(0, b"!")  # faults: null page is kernel-owned

        result = runtime.execute(domain.udi, corrupt_then_escape)
        assert not result.ok
        assert result.recovery_time == pytest.approx(runtime.cost.rewind)

        # The rewind discarded the domain heap: re-running the init path
        # hands out the same address with fresh contents.
        again = runtime.execute(domain.udi, plant_secret)
        assert again.ok
        assert again.value == addr
        assert consistency_check(runtime) == []

    def test_reentry_cache_invariants(self, backend):
        # Ticket replay must behave identically on every substrate: same
        # hit counts, same results, books balanced.
        runtime = SdradRuntime(backend=backend)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        values = [
            runtime.execute(domain.udi, lambda h, i=i: i * 2).value
            for i in range(10)
        ]
        assert values == [i * 2 for i in range(10)]
        assert runtime.reentry_hits == 9
        assert runtime.reentry_misses == 1
        assert consistency_check(runtime) == []

    def test_gate_restored_after_exit(self, backend):
        runtime = SdradRuntime(backend=backend)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        before = runtime.space.gate.value
        runtime.execute(domain.udi, lambda h: None)
        assert runtime.space.gate.value == before


class TestMpkBitIdentity:
    """backend="mpk" (the default) must be the pre-backend tree, bit for bit."""

    @staticmethod
    def _workload(runtime):
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, plant_secret)
        runtime.execute(domain.udi, lambda h: h.space.store(0, b"!"))
        runtime.execute(domain.udi, lambda h: "alive")
        runtime.domain_destroy(domain.udi)

    def test_default_and_explicit_mpk_identical(self):
        implicit = SdradRuntime()
        explicit = SdradRuntime(backend="mpk")
        self._workload(implicit)
        self._workload(explicit)
        assert snapshot(implicit) == snapshot(explicit)
        assert implicit.clock.now == explicit.clock.now
        assert implicit.space.gate.writes == explicit.space.gate.writes

    def test_default_backend_is_mpk(self):
        runtime = SdradRuntime()
        assert runtime.backend.name == "mpk"
        assert runtime.space.backend.name == "mpk"

    def test_snapshot_carries_backend_and_gate_alias(self):
        runtime = SdradRuntime()
        memory = snapshot(runtime)["memory"]
        assert memory["backend"] == "mpk"
        assert memory["gate_writes"] == runtime.space.gate.writes


class TestCheriScale:
    def test_thousand_domains(self):
        # The whole point of leaving MPK: no 16-key ceiling. 1000 live
        # domains, each with its own tag, and the last one still executes.
        runtime = SdradRuntime(
            space=AddressSpace(size=64 * 1024 * 1024, backend="cheri")
        )
        domains = [
            runtime.domain_init(
                flags=DomainFlags.RETURN_TO_PARENT,
                heap_size=4096,
                stack_size=4096,
            )
            for _ in range(1000)
        ]
        tags = {d.pkey for d in domains}
        assert len(tags) == 1000
        result = runtime.execute(domains[-1].udi, lambda h: h.malloc(64))
        assert result.ok
        assert consistency_check(runtime) == []

    def test_mpk_still_capped(self):
        runtime = SdradRuntime()
        for _ in range(15):
            runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        with pytest.raises(OutOfDomains):
            runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)


@pytest.mark.parametrize("backend", ["cheri", "sfi"])
class TestKeyvirtRejection:
    def test_runtime_kwarg_rejected(self, backend):
        with pytest.raises(UnsupportedByBackend, match="key-scarce"):
            SdradRuntime(backend=backend, key_virtualization=True)

    def test_direct_manager_rejected(self, backend):
        runtime = SdradRuntime(backend=backend)
        with pytest.raises(UnsupportedByBackend, match=backend):
            VirtualKeyManager(runtime)


class TestSfiCostShape:
    def test_access_tax_scales_with_checked_accesses(self):
        # SFI has no gate cost but pays per checked access; the clock
        # charge for a domain call must grow by exactly sfi_access_check
        # per extra load.
        def run(n):
            runtime = SdradRuntime(backend="sfi")
            domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

            def touch(h):
                addr = h.malloc(8)
                for _ in range(n):
                    h.load(addr, 8)

            runtime.execute(domain.udi, touch)
            return runtime.clock.now

        tax = DEFAULT_COST_MODEL.sfi_access_check
        delta = run(200) - run(100)
        assert delta == pytest.approx(100 * tax)

    def test_no_gate_cost_on_entry(self):
        sfi = SdradRuntime(backend="sfi")
        assert sfi.backend.entry_cost(sfi.cost) == 0.0
        assert sfi.backend.exit_cost(sfi.cost) == 0.0
        assert sfi.backend.access_tax(sfi.cost) > 0.0

    def test_mpk_pays_no_access_tax(self):
        mpk = SdradRuntime()
        assert mpk.backend.access_tax(mpk.cost) == 0.0
        assert mpk.backend.entry_cost(mpk.cost) > 0.0


class TestGrantSetGate:
    def test_unforgeable_values(self):
        gate = GrantSetGate()
        with pytest.raises(SdradError, match="unforgeable"):
            gate.write(17)
        with pytest.raises(SdradError, match="unforgeable"):
            gate.write_prepared(17, 2)

    def test_derived_values_replay(self):
        gate = GrantSetGate()
        base = gate.snapshot()
        gate.grant(5, read=True, write=True)
        granted = gate.value
        assert gate.allows_write(5)
        gate.write(base)
        assert not gate.allows_read(5)
        gate.write(granted)  # previously derived: fine
        assert gate.allows_write(5)

    def test_interning_is_stable(self):
        # The same grant set, re-derived, interns to the same value — the
        # software TLB and entry tickets key on this.
        gate = GrantSetGate()
        base = gate.snapshot()
        gate.grant(3, read=True, write=False)
        first = gate.value
        gate.write(base)
        gate.grant(3, read=True, write=False)
        assert gate.value == first

    def test_writes_counter_and_hook(self):
        gate = GrantSetGate()
        seen = []
        gate.on_write = seen.append
        gate.grant(2)
        gate.close_all()
        gate.write_prepared(gate.snapshot(), 3)
        assert gate.writes == 5  # 1 grant + 1 close + 3 modelled
        assert len(seen) == 3  # the hook fires once per actual write


class TestTagAllocator:
    def test_lowest_free_first_and_recycling(self):
        alloc = TagAllocator()
        first, second, third = alloc.alloc(), alloc.alloc(), alloc.alloc()
        assert (first, second, third) == (1, 2, 3)
        freed = []
        alloc.on_free = freed.append
        alloc.free(second)
        assert freed == [second]
        assert alloc.alloc() == second  # lowest free tag comes back first

    def test_default_tag_protected(self):
        alloc = TagAllocator()
        with pytest.raises(SdradError):
            alloc.free(0)

    def test_bounded_ceiling(self):
        alloc = TagAllocator(max_tags=3)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(OutOfDomains):
            alloc.alloc()
