"""Adversarial tests for the software TLB (permission cache).

The TLB must never change observable semantics: a cached *allow* verdict
that survives a PKRU write, a page-permission change, or a protection-key
recycle would silently break the containment guarantees E4 and the property
tests rely on. Every test here first *warms* the cache, then mutates the
relevant state, then asserts the fault still fires — so removing any
invalidation hook makes at least one of them fail.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    MemoryError_,
    PermissionFault,
    ProtectionKeyViolation,
    SegmentationFault,
)
from repro.memory.address_space import _TLB_VIEW_BOUND, AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime


@pytest.fixture
def space() -> AddressSpace:
    s = AddressSpace(size=64 * PAGE_SIZE)
    s.page_table.map_range(0, 4 * PAGE_SIZE, pkey=0)
    return s


class TestFastPathBehaviour:
    def test_repeat_access_hits_cache(self, space: AddressSpace):
        space.load(100, 8)
        misses = space.tlb_misses
        hits = space.tlb_hits
        for _ in range(10):
            space.load(100, 8)
        assert space.tlb_misses == misses
        assert space.tlb_hits == hits + 10

    def test_read_verdict_does_not_authorise_writes(self, space: AddressSpace):
        space.page_table.protect_range(
            0, PAGE_SIZE, readable=True, writable=False
        )
        space.load(0, 8)  # warm the *read* verdict
        with pytest.raises(PermissionFault):
            space.store(0, b"x")

    def test_cached_verdict_changes_nothing_observable(self):
        cold = AddressSpace(size=16 * PAGE_SIZE, tlb_enabled=False)
        warm = AddressSpace(size=16 * PAGE_SIZE, tlb_enabled=True)
        for s in (cold, warm):
            s.page_table.map_range(0, 2 * PAGE_SIZE, pkey=0)
            s.store(10, b"hello world")
            for _ in range(3):
                assert s.load(10, 11) == b"hello world"
        assert cold.loads == warm.loads
        assert cold.stores == warm.stores
        assert cold.faults == warm.faults
        assert warm.tlb_hits > 0 and cold.tlb_hits == 0

    def test_faults_are_never_cached(self, space: AddressSpace):
        for _ in range(3):
            with pytest.raises(SegmentationFault):
                space.load(10 * PAGE_SIZE, 4)
        assert space.faults == 3

    def test_disabled_tlb_keeps_counters_zero(self):
        s = AddressSpace(size=8 * PAGE_SIZE, tlb_enabled=False)
        s.page_table.map_range(0, PAGE_SIZE, pkey=0)
        for _ in range(5):
            s.load(0, 4)
        assert s.tlb_hits == 0
        assert s.tlb_misses == 0

    def test_multipage_access_caches_every_page(self, space: AddressSpace):
        space.load(0, 3 * PAGE_SIZE)
        assert space.tlb_misses == 3
        space.load(0, 3 * PAGE_SIZE)
        assert space.tlb_hits == 3


class TestPkruInvalidation:
    def test_revoked_key_faults_after_cached_verdict(self, space: AddressSpace):
        pkey = space.pkeys.alloc()
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, pkey)
        space.pkru.grant(pkey, read=True, write=True)
        space.store(PAGE_SIZE, b"warm")  # cache write verdict
        space.load(PAGE_SIZE, 4)  # cache read verdict
        space.pkru.revoke(pkey)  # the domain-exit WRPKRU
        with pytest.raises(ProtectionKeyViolation):
            space.load(PAGE_SIZE, 4)
        with pytest.raises(ProtectionKeyViolation):
            space.store(PAGE_SIZE, b"stale")

    def test_domain_exit_pkru_restore_drops_domain_verdicts(self):
        # End-to-end: verdicts cached while inside a domain must not let
        # the outside world (root PKRU) reach the domain's pages.
        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

        def touch_own_heap(handle):
            addr = handle.malloc(32)
            handle.store(addr, b"inside")
            return addr

        addr = runtime.execute(domain.udi, touch_own_heap).unwrap()
        # Back outside: PKRU was restored on exit; the cached in-domain
        # verdict must not apply.
        with pytest.raises(ProtectionKeyViolation):
            runtime.space.load(addr, 6)

    def test_regrant_after_revoke_works(self, space: AddressSpace):
        pkey = space.pkeys.alloc()
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, pkey)
        space.pkru.grant(pkey, read=True, write=True)
        space.load(PAGE_SIZE, 4)
        space.pkru.revoke(pkey)
        space.pkru.grant(pkey, read=True, write=True)
        assert space.load(PAGE_SIZE, 4) is not None


class TestPageTableInvalidation:
    def test_mprotect_downgrade_faults_after_cached_verdict(
        self, space: AddressSpace
    ):
        space.store(0, b"warm")  # cache the write verdict
        space.page_table.protect_range(
            0, PAGE_SIZE, readable=True, writable=False
        )
        with pytest.raises(PermissionFault):
            space.store(0, b"stale verdict")

    def test_unmap_faults_after_cached_verdict(self, space: AddressSpace):
        space.load(0, 4)
        space.page_table.unmap_range(0, PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            space.load(0, 4)

    def test_retag_to_denied_key_faults_after_cached_verdict(
        self, space: AddressSpace
    ):
        denied = space.pkeys.alloc()  # never granted in PKRU
        space.load(0, 4)
        space.page_table.tag_range(0, PAGE_SIZE, denied)
        with pytest.raises(ProtectionKeyViolation):
            space.load(0, 4)

    def test_invalidation_is_page_scoped(self, space: AddressSpace):
        space.load(0, 4)
        space.load(PAGE_SIZE, 4)
        space.page_table.protect_range(
            0, PAGE_SIZE, readable=False, writable=False
        )
        hits = space.tlb_hits
        space.load(PAGE_SIZE, 4)  # untouched page stays cached
        assert space.tlb_hits == hits + 1


class TestKeyRecyclingInvalidation:
    def test_pkey_free_flushes_cache(self, space: AddressSpace):
        pkey = space.pkeys.alloc()
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, pkey)
        space.pkru.grant(pkey, read=True, write=True)
        space.load(PAGE_SIZE, 4)
        # Retag away, then recycle the key as the kernel would.
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, 0)
        flushes = space.tlb_flushes
        space.pkeys.free(pkey)
        assert space.tlb_flushes > flushes
        # The flush dropped every cached verdict, not just this page's.
        assert all(not c for c in space._tlb_by_pkru.values())

    def test_keyvirt_eviction_faults_stale_access(self):
        # libmpk-style recycling: domain A's physical key is taken by
        # eviction; re-creating A's PKRU view must fault on A's pages
        # (now behind the lock key), not serve a stale cached verdict.
        runtime = SdradRuntime(key_virtualization=True)
        domains = [
            runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            for _ in range(runtime.keys.free_physical_keys + 1)
        ]
        victim = domains[0]

        def touch(handle):
            addr = handle.malloc(32)
            handle.store(addr, b"cached-verdict")
            return addr

        addr = runtime.execute(victim.udi, touch).unwrap()
        victim_pkru_view = None
        # Record the PKRU value under which the verdict was cached.
        saved = runtime.space.pkru.snapshot()
        runtime.space.pkru.write(runtime.space.pkru.DENY_ALL_EXCEPT_DEFAULT)
        runtime.space.pkru.revoke(0)
        runtime.space.pkru.grant(victim.pkey, read=True, write=True)
        victim_pkru_view = runtime.space.pkru.value
        runtime.space.pkru.write(saved)

        # Enter every other domain so the victim is evicted to the lock key.
        for other in domains[1:]:
            runtime.execute(other.udi, lambda h: None)
        assert not runtime.keys.is_bound(victim.udi)

        # Replay the victim's old PKRU view: its pages are lock-keyed now,
        # so the access must fault even though a verdict was cached under
        # this exact PKRU value before the eviction retag.
        runtime.space.pkru.write(victim_pkru_view)
        with pytest.raises(ProtectionKeyViolation):
            runtime.space.load(addr, 4)
        runtime.space.pkru.write(saved)

    def test_keyvirt_release_flushes_cache(self):
        runtime = SdradRuntime(key_virtualization=True)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: h.malloc(16))
        flushes = runtime.space.tlb_flushes
        runtime.domain_destroy(domain.udi)
        assert runtime.space.tlb_flushes > flushes


class TestViewBound:
    """One distinct gate value past the bound flushes every verdict view,
    and every access plan with them."""

    @pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
    def test_gate_churn_past_the_bound(self, backend: str):
        space = AddressSpace(size=16 * PAGE_SIZE, backend=backend)
        table = space.page_table
        table.map_range(0, 4 * PAGE_SIZE, pkey=0)
        own, foreign = space.pkeys.alloc(), space.pkeys.alloc()
        table.tag_range(PAGE_SIZE, PAGE_SIZE, own)
        table.tag_range(2 * PAGE_SIZE, PAGE_SIZE, foreign)
        table.protect_range(3 * PAGE_SIZE, PAGE_SIZE, readable=True, writable=False)
        gate = space.gate
        gate.grant(own)
        home = gate.value
        checked = space.plans.checked_plan(PAGE_SIZE, PAGE_SIZE, "rw")
        kernel = space.plans.kernel_plan(0, PAGE_SIZE)
        assert checked.is_valid() and kernel.is_valid()
        flushes = space.tlb_flushes

        for i in range(1, _TLB_VIEW_BOUND + 2):
            if backend == "mpk":
                gate.write(home ^ (i << 4))  # flips bits of keys 2-5 only
            else:
                gate.grant(100 + i)  # each grant derives a larger set
            space.load(0, 8)  # populate the view
            assert len(space._tlb_by_pkru) <= _TLB_VIEW_BOUND
        assert space.tlb_flushes > flushes

        gate.write(home)
        assert checked.cell[0] is None  # shot down, not merely dormant
        assert not checked.is_valid() and not kernel.is_valid()
        fresh = space.plans.checked_plan(PAGE_SIZE, PAGE_SIZE, "rw")
        assert fresh is not checked and fresh.is_valid()
        # Cold, then from the re-warmed view: every verdict is the page
        # table's (page 4 is unmapped).
        for _ in range(2):
            verdicts = []
            for page in range(5):
                addr = page * PAGE_SIZE
                for write in (False, True):
                    allowed = table.run_allows(page, page + 1, gate, not write, write)
                    try:
                        space.store(addr, b"v") if write else space.load(addr, 1)
                    except MemoryError_:
                        assert not allowed
                    else:
                        assert allowed
                    verdicts.append(allowed)
            assert verdicts == [True, True, True, True, False, False, True, False, False, False]


class TestTelemetry:
    def test_snapshot_surfaces_tlb_counters(self):
        from repro.sdrad.telemetry import snapshot

        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(
            domain.udi, lambda h: [h.store(h.malloc(32), b"x" * 32) for _ in range(4)]
        )
        data = snapshot(runtime)["memory"]
        assert data["tlb_enabled"] is True
        assert data["tlb_hits"] + data["tlb_misses"] > 0
        assert 0.0 <= data["tlb_hit_rate"] <= 1.0
        assert data["tlb_flushes"] >= 0
