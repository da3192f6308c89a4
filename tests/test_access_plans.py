"""Adversarial tests for compiled access plans and batched coalescing.

A checked plan is a batched TLB verdict, and it is only sound because
every event that could change the verdict shoots it down: mprotect, pkey
retag or (un)map of any page of its run, ``pkey_free``, explicit TLB
flush, PKRU switch (dormancy, not death), and domain destroy. Each event gets a scenario that *goes wrong* if its
shootdown hook — and only that hook — is deleted: a stale plan would then
read through revoked permissions, a recycled key, or a freed domain's
heap. Range shootdown is scoped: a plan whose run the update misses stays
live, and a differential test holds random op sequences to the plan-off
twin. Kernel plans mirror ``raw_*`` and die only on a TLB flush. The
ablation tests pin the pure fast-path contract —
``AddressSpace(access_plans=False)`` must be bit-identical in responses,
virtual time and architectural counters — and the batched-read tests pin
``load_many`` to the sequential loop of checked loads, faults and
counters included.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.apps.nginx_server import NginxServer
from repro.apps.openssl_service import TlsServer
from repro.apps.tls import make_appdata, make_client_hello, make_heartbeat_request
from repro.errors import (
    MemoryError_,
    ReproError,
    PermissionFault,
    ProtectionKeyViolation,
    SegmentationFault,
)
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.memory.mpk import PkruRegister
from repro.sdrad.constants import DomainFlags, DomainState
from repro.sdrad.runtime import SdradRuntime


def _mapped_space(pages: int = 4, pkey: int = 0) -> AddressSpace:
    space = AddressSpace(size=PAGE_SIZE * 16)
    space.page_table.map_range(0, pages * PAGE_SIZE, pkey=pkey)
    return space


class TestPlanFastPath:
    """A live plan serves accesses with exact counter semantics."""

    def test_checked_plan_roundtrip_and_counters(self):
        space = _mapped_space()
        plan = space.plans.checked_plan(0, 2 * PAGE_SIZE, "rw")
        assert plan is not None and plan.is_valid()
        loads, stores, hits = space.loads, space.stores, space.tlb_hits
        plan.store(64, b"hello world")
        assert plan.load(64, 11) == b"hello world"
        plan.store_u32(128, 0xDEADBEEF)
        assert plan.load_u32(128) == 0xDEADBEEF
        # Every fast-path access counts as one load/store and one TLB hit
        # (the plan *is* a cached verdict).
        assert space.loads == loads + 2
        assert space.stores == stores + 2
        assert space.tlb_hits == hits + 4
        assert space.faults == 0

    def test_plan_is_cached_per_pkru_and_run(self):
        space = _mapped_space()
        first = space.plans.checked_plan(0, PAGE_SIZE, "r")
        again = space.plans.checked_plan(0, PAGE_SIZE, "r")
        other = space.plans.checked_plan(PAGE_SIZE, PAGE_SIZE, "r")
        assert first is again
        assert other is not first
        assert space.plans.hits == 1
        assert space.plans.built == 2

    def test_probe_failure_returns_none_without_faulting(self):
        space = _mapped_space(pages=2)
        faults = space.faults
        # Run extends into an unmapped page: no plan, no fault recorded.
        assert space.plans.checked_plan(0, 4 * PAGE_SIZE, "r") is None
        # Pages tagged with a key the current PKRU denies: same story.
        pkey = space.pkeys.alloc()
        space.page_table.tag_range(PAGE_SIZE, PAGE_SIZE, pkey)
        assert space.plans.checked_plan(PAGE_SIZE, PAGE_SIZE, "r") is None
        assert space.faults == faults

    def test_out_of_window_access_falls_back(self):
        space = _mapped_space()
        space.store(2 * PAGE_SIZE + 8, b"outside")
        plan = space.plans.checked_plan(0, PAGE_SIZE, "rw")
        # An address outside the compiled window takes the checked path
        # and still succeeds — a plan narrows nothing, it only speeds up.
        assert plan.load(2 * PAGE_SIZE + 8, 7) == b"outside"
        with pytest.raises(SegmentationFault):
            plan.load(PAGE_SIZE * 40, 4)


class TestMprotectShootdown:
    """``protect_range`` must kill the plans over its pages or a
    write-plan outlives a read-only downgrade of its pages."""

    def test_write_plan_dies_on_readonly_downgrade(self):
        space = _mapped_space()
        plan = space.plans.checked_plan(0, 2 * PAGE_SIZE, "rw")
        plan.store(64, b"before")
        shootdowns = space.plans.shootdowns
        space.page_table.protect_range(
            0, 4 * PAGE_SIZE, readable=True, writable=False
        )
        assert space.plans.shootdowns == shootdowns + 1
        assert not plan.is_valid()
        # The dead plan falls back to the checked path, which raises the
        # byte-identical fault the plan-off build would raise.
        with pytest.raises(PermissionFault):
            plan.store(64, b"after")
        assert space.faults == 1
        assert plan.load(64, 6) == b"before"  # reads still allowed

    def test_fallback_fault_matches_plan_off_twin(self):
        def provoke(space):
            plan_or_space = (
                space.plans.checked_plan(0, PAGE_SIZE, "rw")
                if space.plans is not None
                else space
            )
            plan_or_space.store(64, b"x" * 8)
            space.page_table.protect_range(
                0, 4 * PAGE_SIZE, readable=True, writable=False
            )
            try:
                plan_or_space.store(64, b"y" * 8)
            except PermissionFault as exc:
                return str(exc), space.faults, space.loads, space.stores

        on = provoke(_mapped_space())
        off_space = AddressSpace(size=PAGE_SIZE * 16, access_plans=False)
        off_space.page_table.map_range(0, 4 * PAGE_SIZE, pkey=0)
        off = provoke(off_space)
        assert on == off


class TestRetagShootdown:
    """``pkey_mprotect`` retags must kill plans — the pages now belong to
    a key the compiling PKRU may not hold."""

    def test_plan_dies_when_pages_move_to_foreign_key(self):
        space = _mapped_space()
        plan = space.plans.checked_plan(0, PAGE_SIZE, "rw")
        plan.store(0, b"mine")
        foreign = space.pkeys.alloc()
        space.page_table.tag_range(0, 4 * PAGE_SIZE, foreign)
        assert not plan.is_valid()
        # Default PKRU denies the foreign key: the fallback faults exactly
        # as the per-access path would. A stale plan reading through the
        # old verdict would silently alias another owner's pages.
        with pytest.raises(ProtectionKeyViolation):
            plan.load(0, 4)
        with pytest.raises(ProtectionKeyViolation):
            plan.store(0, b"evil")


class TestPkeyFreeShootdown:
    """Key recycling flushes the TLB and must take every checked plan
    with it."""

    def test_unrelated_pkey_free_kills_plans(self):
        space = _mapped_space()
        plan = space.plans.checked_plan(0, PAGE_SIZE, "rw")
        plan.store(8, b"payload")
        shootdowns = space.plans.shootdowns
        pkey = space.pkeys.alloc()
        space.pkeys.free(pkey)
        assert space.plans.shootdowns == shootdowns + 1
        assert not plan.is_valid()
        # Pages are untouched, so the fallback still succeeds — and the
        # next request re-arms the same plan after a passing probe.
        assert plan.load(8, 7) == b"payload"
        built = space.plans.built
        assert space.plans.checked_plan(0, PAGE_SIZE, "rw") is plan
        assert plan.is_valid()
        assert space.plans.built == built + 1

    def test_explicit_tlb_flush_kills_plans(self):
        space = _mapped_space()
        plan = space.plans.checked_plan(0, PAGE_SIZE, "r")
        assert plan.is_valid()
        space.tlb_flush()
        assert not plan.is_valid()


class TestPkruSwitchDormancy:
    """WRPKRU makes foreign plans *dormant*, not dead — mirroring the
    per-PKRU TLB verdict caches they anchor to."""

    def test_plan_sleeps_under_foreign_pkru_and_wakes_on_return(self):
        space = _mapped_space()
        pkey = space.pkeys.alloc()
        space.page_table.tag_range(0, 2 * PAGE_SIZE, pkey)
        space.pkru.grant(pkey)
        granted = space.pkru.value
        plan = space.plans.checked_plan(0, PAGE_SIZE, "rw")
        plan.store(16, b"domain-data")
        assert plan.is_valid()

        space.pkru.write(PkruRegister.DENY_ALL_EXCEPT_DEFAULT)
        assert not plan.is_valid()
        # Under the denying PKRU the fallback checked path faults — the
        # plan must not leak the rights it was compiled under.
        with pytest.raises(ProtectionKeyViolation):
            plan.load(16, 11)
        with pytest.raises(ProtectionKeyViolation):
            plan.store(16, b"smuggled")

        built, hits = space.plans.built, space.plans.hits
        space.pkru.write(granted)
        assert plan.is_valid()  # same PKRU, same verdict dict: reactivated
        assert plan.load(16, 11) == b"domain-data"
        # Dormant, not shot down: the cache serves it as a hit, no re-arm.
        assert space.plans.checked_plan(0, PAGE_SIZE, "rw") is plan
        assert (space.plans.built, space.plans.hits) == (built, hits + 1)

    def test_cache_compiles_one_plan_per_pkru(self):
        space = _mapped_space()
        pkey = space.pkeys.alloc()
        space.page_table.tag_range(0, 2 * PAGE_SIZE, pkey)
        space.pkru.grant(pkey)
        with_key = space.plans.checked_plan(0, PAGE_SIZE, "r")
        space.pkru.write(PkruRegister.DENY_ALL_EXCEPT_DEFAULT)
        # Pages carry the (now denied) key: probe fails, no plan.
        assert space.plans.checked_plan(0, PAGE_SIZE, "r") is None
        # An accessible run compiles a distinct plan under this PKRU.
        other = space.plans.checked_plan(2 * PAGE_SIZE, PAGE_SIZE, "r")
        assert other is not None and other is not with_key


class TestKernelPlans:
    """Kernel plans mirror ``raw_*``: PKRU-exempt, counter-exempt and
    blind to the page table, so only a TLB flush (or the cache bound)
    kills them."""

    def test_survives_pkru_switch_and_range_update_not_flush(self):
        space = _mapped_space()
        plan = space.plans.kernel_plan(0, 2 * PAGE_SIZE)
        loads, stores = space.loads, space.stores
        plan.store(32, b"metadata")
        assert plan.load(32, 8) == b"metadata"
        assert (space.loads, space.stores) == (loads, stores)

        space.pkru.write(PkruRegister.DENY_ALL_EXCEPT_DEFAULT)
        assert plan.is_valid()  # kernel access ignores PKRU, like raw_*
        assert plan.load(32, 8) == b"metadata"

        table = space.page_table
        table.protect_range(0, 4 * PAGE_SIZE, readable=True, writable=False)
        table.tag_range(0, PAGE_SIZE, space.pkeys.alloc())
        table.unmap_range(PAGE_SIZE, PAGE_SIZE)
        space.pkeys.free(space.pkeys.alloc())
        assert plan.is_valid()
        # Live across remaps, it reads and writes exactly like raw_*:
        # read-only, foreign-keyed and unmapped pages alike.
        plan.store(PAGE_SIZE + 8, b"unmapped")
        assert plan.load(PAGE_SIZE + 8, 8) == space.raw_load(PAGE_SIZE + 8, 8)
        assert plan.load(32, 8) == space.raw_load(32, 8) == b"metadata"
        plan.store_u32(40, 0xC0FFEE)
        assert plan.load_u32(40) == int.from_bytes(space.raw_load(40, 4), "little")
        straddle = 2 * PAGE_SIZE - 4  # leaves the run: raw_* fallback
        assert plan.load(straddle, 8) == space.raw_load(straddle, 8)
        with pytest.raises(SegmentationFault):
            plan.load(space.size - 4, 8)  # off the space: raw_* bounds
        assert (space.loads, space.stores, space.faults) == (loads, stores, 0)

        space.tlb_flush()
        assert not plan.is_valid()
        # Dead, it falls back to the raw path: same bytes either way.
        assert plan.load(32, 8) == b"metadata"
        plan.store(48, b"after")
        assert space.raw_load(48, 5) == b"after"

    def test_rejects_out_of_space_runs(self):
        space = _mapped_space()
        assert space.plans.kernel_plan(-8, PAGE_SIZE) is None
        assert space.plans.kernel_plan(0, 0) is None
        assert space.plans.kernel_plan(space.size - 16, 64) is None


class TestScopedShootdown:
    """A range update kills exactly the checked plans whose run shares a
    page with it; plans elsewhere stay live."""

    #: A run over pages 4..5 that starts and ends mid-page.
    BASE, LENGTH = 4 * PAGE_SIZE + 100, PAGE_SIZE

    @pytest.mark.parametrize(
        "first_page, pages, live",
        [
            (0, 4, True),  # ends one page below the run
            (6, 2, True),  # starts one page above it
            (3, 2, False),  # one-page overlap at the low end (page 4)
            (5, 3, False),  # one-page overlap at the high end (page 5)
        ],
    )
    def test_only_overlapping_plans_die(self, first_page, pages, live):
        space = _mapped_space(pages=8)
        plan = space.plans.checked_plan(self.BASE, self.LENGTH, "rw")
        kernel = space.plans.kernel_plan(self.BASE, self.LENGTH)
        shootdowns = space.plans.shootdowns
        space.page_table.protect_range(
            first_page * PAGE_SIZE, pages * PAGE_SIZE, readable=True, writable=True
        )
        assert space.plans.shootdowns == shootdowns + 1
        assert plan.is_valid() is live
        assert kernel.is_valid()
        # A killed plan comes back, as the same object, only through
        # checked_plan after a passing probe; a live one is a plain hit.
        built = space.plans.built
        assert space.plans.checked_plan(self.BASE, self.LENGTH, "rw") is plan
        assert plan.is_valid()
        assert space.plans.built == built + (0 if live else 1)
        # An update that makes the run read-only kills it for good: no
        # plan for the run, and the dead one falls back to the fault.
        space.page_table.protect_range(
            first_page * PAGE_SIZE, pages * PAGE_SIZE, readable=True, writable=False
        )
        assert plan.is_valid() is live
        again = space.plans.checked_plan(self.BASE, self.LENGTH, "rw")
        assert again is (plan if live else None)
        assert plan.is_valid() is live
        if not live:
            with pytest.raises(PermissionFault):
                plan.store(max(self.BASE, first_page * PAGE_SIZE), b"ro")

    def test_update_kills_dormant_plans_of_other_pkru_values(self):
        space = _mapped_space(pages=8)
        space.pkru.grant(space.pkeys.alloc())
        granted = space.pkru.value
        plan = space.plans.checked_plan(self.BASE, self.LENGTH, "r")
        space.pkru.write(PkruRegister.DENY_ALL_EXCEPT_DEFAULT)
        assert not plan.is_valid()  # dormant
        space.page_table.unmap_range(5 * PAGE_SIZE, PAGE_SIZE)
        space.pkru.write(granted)
        assert not plan.is_valid()  # killed while dormant: no reactivation
        # Page 5 is unmapped: the probe fails and the plan stays dead.
        assert space.plans.checked_plan(self.BASE, self.LENGTH, "r") is None
        assert not plan.is_valid()
        with pytest.raises(SegmentationFault):
            plan.load(5 * PAGE_SIZE, 4)
        # Remapped, the run probes clean and the same plan is re-armed.
        space.page_table.map_range(5 * PAGE_SIZE, PAGE_SIZE)
        assert space.plans.checked_plan(self.BASE, self.LENGTH, "r") is plan
        assert plan.is_valid()


class TestDomainDestroyShootdown:
    """The load-bearing invariant: a stale plan serving a freed domain's
    heap must be impossible, even when the udi/heap region is recycled."""

    def _capture_heap_plan(self, runtime, domain):
        captured = {}

        def body(handle):
            buf = handle.malloc(64)
            handle.store(buf, b"S" * 64)
            captured["plan"] = handle._plan
            captured["buf"] = buf
            return bytes(handle.load_view(buf, 64))

        result = runtime.execute(domain.udi, body)
        assert result.ok and result.value == b"S" * 64
        assert captured["plan"] is not None
        return captured["plan"], captured["buf"]

    @pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
    def test_destroy_kills_the_heap_plan(self, backend):
        runtime = SdradRuntime(backend=backend)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        plan, buf = self._capture_heap_plan(runtime, domain)
        runtime.domain_destroy(domain.udi)
        assert not plan.cell[0]  # shot down, not merely dormant
        # The freed heap is unmapped: every accessor path faults.
        with pytest.raises(MemoryError_):
            plan.load(buf, 64)
        with pytest.raises(MemoryError_):
            plan.store(buf, b"use-after-destroy")
        # So does the checked path, into the heap and the stack alike.
        space = runtime.space
        stack_top = domain.stack_base + domain.stack_size - 8
        for stale in (buf, domain.stack_base, stack_top):
            with pytest.raises(SegmentationFault):
                space.load(stale, 8)
            with pytest.raises(SegmentationFault):
                space.store(stale, b"stale!!!")

    @pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
    def test_stale_plan_cannot_read_a_successor_domain(self, backend):
        runtime = SdradRuntime(backend=backend)
        first = runtime.domain_init(udi=5, flags=DomainFlags.RETURN_TO_PARENT)
        plan, buf = self._capture_heap_plan(runtime, first)
        runtime.domain_destroy(5)
        successor = runtime.domain_init(
            udi=5, flags=DomainFlags.RETURN_TO_PARENT
        )

        def fill(handle):
            secret = handle.malloc(64)
            handle.store(secret, b"successor-secret" * 4)
            return secret

        assert runtime.execute(successor.udi, fill).ok
        # From the root domain, the predecessor's plan must not reveal
        # the successor's heap: the dead plan falls back to the checked
        # path, which denies the successor's key under the root PKRU.
        assert not plan.cell[0]
        with pytest.raises(MemoryError_):
            plan.load(buf, 64)
        # The successor runs on the recycled regions; the destroyed domain
        # keeps its final state and stats, and holds no allocator or stack
        # through which it could reach the successor's memory.
        assert (first.heap_base, first.stack_base) == (
            successor.heap_base,
            successor.stack_base,
        )
        assert first.state is DomainState.DESTROYED
        assert (first.stats.entries, first.stats.clean_exits) == (1, 1)
        assert first.heap is None and first.stack is None


class TestAblationBitIdentical:
    """``AddressSpace(access_plans=False)`` is the honesty ablation: the
    same workload must produce bit-identical responses, virtual time and
    architectural counters — plans are a pure fast path."""

    def _run_workload(self, access_plans: bool):
        runtime = SdradRuntime(space=AddressSpace(access_plans=access_plans))
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("c")
        responses = []
        for i in range(20):
            value = b"value-%04d" % i
            responses.append(
                server.handle(
                    "c", b"set key%d 0 0 %d\r\n%s\r\n" % (i, len(value), value)
                )
            )
            responses.append(server.handle("c", b"get key%d\r\n" % i))
        # A contained stack smash and the recovery that follows it.
        responses.append(server.handle("c", b"get " + b"K" * 300 + b"\r\n"))
        responses.append(server.handle("c", b"get key7\r\n"))
        responses.extend(
            server.handle_batch(
                "c", [b"get key1 key2\r\n", b"delete key3\r\n", b"get key3\r\n"]
            )
        )
        return runtime, server, responses

    def test_responses_time_and_counters_identical(self):
        rt_on, srv_on, out_on = self._run_workload(True)
        rt_off, srv_off, out_off = self._run_workload(False)
        assert out_on == out_off
        assert rt_on.clock.now == rt_off.clock.now
        assert rt_on.space.loads == rt_off.space.loads
        assert rt_on.space.stores == rt_off.space.stores
        assert rt_on.space.faults == rt_off.space.faults
        assert rt_on.space.pkru.writes == rt_off.space.pkru.writes
        assert srv_on.metrics.rewinds == srv_off.metrics.rewinds == 1
        # And the fast path actually engaged on the plan-on run.
        assert rt_on.space.plans.built > 0
        assert rt_off.space.plans is None

    def test_obs_and_plans_grid_is_pure(self):
        from repro.obs import Observability

        def run(access_plans: bool, obs_on: bool):
            runtime = SdradRuntime(
                space=AddressSpace(access_plans=access_plans),
                obs=Observability() if obs_on else None,
            )
            server = MemcachedServer(
                runtime, isolation=IsolationMode.PER_CONNECTION
            )
            server.connect("c")
            out = [server.handle("c", b"set a 0 0 2\r\nhi\r\n")]
            out.append(server.handle("c", b"get a\r\n"))
            out.append(server.handle("c", b"get " + b"K" * 300 + b"\r\n"))
            return out, runtime.clock.now

        grid = {
            (plans, obs): run(plans, obs)
            for plans in (True, False)
            for obs in (True, False)
        }
        baseline = grid[(False, False)]
        for cell, got in grid.items():
            assert got == baseline, cell


_PROBE_PAGES = 8
#: (mapped, readable, writable), weighted towards accessible pages so that
#: multi-page runs often hinge on their tags alone.
_page_perms = st.sampled_from(
    [(True, True, True)] * 4
    + [(True, True, False), (True, False, True), (True, False, False)]
    + [(False, False, False)]
)
_page_states = st.lists(
    st.tuples(_page_perms, st.integers(0, 3)),
    min_size=_PROBE_PAGES,
    max_size=_PROBE_PAGES,
)
_grants = st.lists(
    st.tuples(st.integers(0, 3), st.booleans(), st.booleans()), max_size=6
)
_runs = st.lists(
    st.tuples(
        st.integers(0, _PROBE_PAGES * PAGE_SIZE),
        st.integers(1, 4 * PAGE_SIZE),
        st.sampled_from(["r", "w", "rw"]),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
@settings(max_examples=150, deadline=None)
@given(pages=_page_states, grants=_grants, runs=_runs)
def test_probe_matches_per_page_check(backend, pages, grants, runs):
    """A checked plan exists exactly when the per-access path would let
    every page of the run through, and building one leaves the fault and
    TLB counters alone — on every substrate."""
    space = AddressSpace(size=_PROBE_PAGES * PAGE_SIZE, backend=backend)
    tags = [0] + [space.tags.alloc() for _ in range(3)]
    for index, ((mapped, readable, writable), tag) in enumerate(pages):
        if mapped:
            space.page_table.map_range(
                index * PAGE_SIZE,
                PAGE_SIZE,
                readable=readable,
                writable=writable,
                pkey=tags[tag],
            )
    for tag, read, write in grants:
        space.gate.grant(tags[tag], read=read, write=write)
    for base, length, mode in runs:
        before = (space.faults, space.tlb_hits, space.tlb_misses)
        plan = space.plans.checked_plan(base, length, mode)
        assert (space.faults, space.tlb_hits, space.tlb_misses) == before
        passes = True
        for write in {"r": [False], "w": [True], "rw": [False, True]}[mode]:
            try:
                space._check_access(base, length, write=write)
            except MemoryError_:
                passes = False
        assert (plan is not None) == passes, (base, length, mode)


_DIFF_PAGES = 8
_span = st.tuples(st.integers(0, _DIFF_PAGES - 1), st.integers(1, 3))
_slot = st.integers(0, 7)
_diff_ops = st.lists(
    st.one_of(
        st.tuples(st.just("map"), _span, st.booleans(), st.booleans(), _slot),
        st.tuples(st.just("unmap"), _span),
        st.tuples(st.just("protect"), _span, st.booleans(), st.booleans()),
        st.tuples(st.just("tag"), _span, _slot),
        st.tuples(st.just("alloc")),
        st.tuples(st.just("free"), _slot),
        st.tuples(st.just("grant"), _slot, st.booleans(), st.booleans()),
        st.tuples(st.just("revoke"), _slot),
        st.tuples(st.just("gate"), _slot),
        st.tuples(
            st.just("plan"),
            st.sampled_from(["r", "w", "rw", "kernel"]),
            st.one_of(
                st.integers(0, _DIFF_PAGES - 1).map(lambda page: page * PAGE_SIZE),
                st.integers(0, _DIFF_PAGES * PAGE_SIZE - 1),
            ),
            st.integers(1, 3 * PAGE_SIZE),
        ),
        st.tuples(
            st.just("access"),
            _slot,
            st.sampled_from(["load", "store", "load_u32", "store_u32"]),
            st.integers(-16, 3 * PAGE_SIZE),
            st.integers(0, 64),
        ),
    ),
    min_size=8,
    max_size=40,
)


class _DiffSide:
    """One side of the plans on/off differential: the space plus the
    tags, gate values and plan windows its op sequence has produced."""

    def __init__(self, backend: str, access_plans: bool) -> None:
        self.space = AddressSpace(
            size=_DIFF_PAGES * PAGE_SIZE, backend=backend, access_plans=access_plans
        )
        self.space.page_table.map_range(0, 6 * PAGE_SIZE)
        self.tags = [0]
        self.gate_values = [self.space.gate.value]
        #: (kind, base, plan); ``plan`` is ``None`` on the plan-off side or
        #: when the probe refused the run.
        self.windows: list = []

    def apply(self, op):
        space, table = self.space, self.space.page_table
        name = op[0]
        if name in ("map", "unmap", "protect", "tag"):
            first, pages = op[1]
            span = (first * PAGE_SIZE, pages * PAGE_SIZE)
            if name == "map":
                tag = self.tags[op[4] % len(self.tags)]
                return table.map_range(*span, readable=op[2], writable=op[3], pkey=tag)
            if name == "unmap":
                return table.unmap_range(*span)
            if name == "protect":
                return table.protect_range(*span, readable=op[2], writable=op[3])
            return table.tag_range(*span, self.tags[op[2] % len(self.tags)])
        if name == "alloc":
            self.tags.append(space.tags.alloc())
            return self.tags[-1]
        if name == "free":
            return space.tags.free(self.tags[op[1] % len(self.tags)])
        if name in ("grant", "revoke"):
            tag = self.tags[op[1] % len(self.tags)]
            if name == "grant":
                space.gate.grant(tag, read=op[2], write=op[3])
            else:
                space.gate.revoke(tag)
            self.gate_values.append(space.gate.value)
            return space.gate.value
        if name == "gate":
            return space.gate.write(self.gate_values[op[1] % len(self.gate_values)])
        if name == "plan":
            _, kind, base, length = op
            plan = None
            if space.plans is not None:
                plan = (
                    space.plans.kernel_plan(base, length)
                    if kind == "kernel"
                    else space.plans.checked_plan(base, length, kind)
                )
            self.windows.append((kind, base, plan))
            return None
        _, index, accessor, offset, n = op
        kind, base, plan = (
            self.windows[index % len(self.windows)] if self.windows else ("rw", 0, None)
        )
        addr = base + offset
        if plan is not None:
            target = plan
        elif kind == "kernel":
            target = _RawAccessor(space)
        else:
            target = space
        if accessor == "load":
            return target.load(addr, n)
        if accessor == "store":
            return target.store(addr, bytes([n]) * n)
        if accessor == "load_u32":
            return target.load_u32(addr)
        return target.store_u32(addr, 0x01020304 * n)


class _RawAccessor:
    """The ``raw_*`` path a kernel plan compiles, as plan-shaped calls."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space

    def load(self, addr: int, n: int) -> bytes:
        return self.space.raw_load(addr, n)

    def store(self, addr: int, data: bytes) -> None:
        self.space.raw_store(addr, data)

    def load_u32(self, addr: int) -> int:
        return int.from_bytes(self.space.raw_load(addr, 4), "little")

    def store_u32(self, addr: int, value: int) -> None:
        self.space.raw_store(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))


def _outcome(side: _DiffSide, op):
    try:
        result = ("ok", side.apply(op))
    except ReproError as exc:
        result = (type(exc), str(exc))
    space = side.space
    return result, space.loads, space.stores, space.faults


@pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=_diff_ops)
def test_scoped_shootdown_matches_plan_off_twin(backend, ops):
    """Random remaps, retags, key recycling, gate writes and plan traffic:
    the plans-on space answers every op — bytes, fault type and message,
    ``loads``/``stores``/``faults`` — exactly like its plan-off twin, and
    no usable checked plan ever outlives a verdict an update changed."""
    on = _DiffSide(backend, access_plans=True)
    off = _DiffSide(backend, access_plans=False)
    for op in ops:
        assert _outcome(on, op) == _outcome(off, op), op
        for kind, _, plan in on.windows:
            if plan is not None and kind != "kernel" and plan.is_valid():
                # A usable plan's verdict must still hold right now.
                assert on.space.plans._probe(plan.base, plan.length, plan.mode)
    size = on.space.size
    assert on.space.raw_load(0, size) == off.space.raw_load(0, size)


def _e1_memcached_counters(backend: str, isolation: IsolationMode, batch: int):
    """E1's memcached trace (300 requests, a set every tenth) with one
    contained stack smash in the middle; returns the architectural
    counters and the final virtual clock."""
    trace = [
        b"set key%03d 0 0 8\r\nvalue%03d\r\n" % (i, i)
        if i % 10 == 0
        else b"get key%03d\r\n" % (i - i % 10)
        for i in range(300)
    ]
    trace.insert(150, b"get " + b"K" * 300 + b"\r\n")
    runtime = SdradRuntime(backend=backend)
    server = MemcachedServer(runtime, isolation=isolation)
    server.connect("client")
    if batch > 1:
        for i in range(0, len(trace), batch):
            server.handle_batch("client", trace[i : i + batch])
    else:
        for raw in trace:
            server.handle("client", raw)
    space = runtime.space
    return (
        space.tlb_hits,
        space.tlb_misses,
        space.tlb_flushes,
        space.plans.built,
        space.plans.hits,
        space.plans.shootdowns,
        space.faults,
        space.gate.writes,
        runtime.clock.now,
    )


#: (tlb_hits, tlb_misses, tlb_flushes, plans.built, plans.hits,
#: plans.shootdowns, faults, gate_writes, virtual clock). Hits, misses,
#: faults, gate writes and the clock date from the per-page page table the
#: array-backed one replaced; flushes, builds, plan hits and shootdowns
#: from one range update per direction per domain lifecycle, with kernel
#: plans that survive range updates and ``pkey_free``. Per-request rows'
#: flushes, builds, plan hits and shootdowns date from domains that retire
#: and hand their mapped regions and key to the next init: no range
#: update, ``pkey_free`` or plan probe per request. Their plan hits date
#: from a pooled allocator and stack that keep their plan references across
#: ``reset_full``: no plan-cache lookup per request.
_E1_COUNTERS = {
    ("mpk", "per-connection", 1): (360, 1, 4, 6, 0, 4, 1, 1204, 0.003101799999999996),
    ("mpk", "per-connection", 16): (367, 1, 4, 6, 0, 4, 2, 140, 0.003025500000000007),
    ("mpk", "per-request", 1): (360, 1, 4, 6, 29, 4, 1, 1204, 0.005504799999999943),
    ("cheri", "per-connection", 1): (360, 1, 4, 6, 0, 4, 1, 903, 0.0030817400000000346),
    ("cheri", "per-connection", 16): (367, 1, 4, 6, 0, 4, 2, 105, 0.0030214000000000074),
    ("cheri", "per-request", 1): (360, 1, 4, 6, 29, 4, 1, 903, 0.004132240000000051),
    ("sfi", "per-connection", 1): (360, 1, 4, 6, 0, 4, 1, 903, 0.003009619999999993),
    ("sfi", "per-connection", 16): (367, 1, 4, 6, 0, 4, 2, 105, 0.003013132000000009),
    ("sfi", "per-request", 1): (360, 1, 4, 6, 29, 4, 1, 903, 0.003729619999999999),
}


@pytest.mark.parametrize(
    "config", sorted(_E1_COUNTERS), ids=lambda c: "/".join(map(str, c))
)
def test_e1_counters_pinned(config):
    """TLB, plan, fault and gate counters are exact functions of the
    workload: a faster page table or probe must not move any of them."""
    backend, isolation, batch = config
    got = _e1_memcached_counters(backend, IsolationMode(isolation), batch)
    assert got == _E1_COUNTERS[config]


def _nginx_trace() -> list[bytes]:
    """120 HTTP requests: GETs, honest POSTs, three request lines that
    overflow their stack buffer and three lying Content-Lengths."""
    trace = []
    for i in range(120):
        if i % 40 == 17:
            trace.append(b"GET /" + b"A" * 1050 + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        elif i % 40 == 33:
            trace.append(
                b"POST /upload HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n"
                + b"B" * 300
            )
        elif i % 5 == 0:
            body = b"payload-%03d" % i
            trace.append(
                b"POST /upload HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
        else:
            path = (b"/", b"/health", b"/static/app.js", b"/static/site.css")[i % 4]
            trace.append(
                b"GET %s HTTP/1.1\r\nHost: repro.example\r\n"
                b"User-Agent: repro-client\r\n\r\n" % path
            )
    return trace


def _tls_trace() -> list[tuple[str, bytes]]:
    """Two sessions' handshakes, then 60 records: application data, honest
    heartbeats, over-reads within the heap (``declared=4000``, which
    return stale bytes earlier domains left there) and over-reads past
    heap and stack (``declared=60000``, contained and rewound)."""
    trace = [("a", make_client_hello()), ("b", make_client_hello())]
    for i in range(60):
        client = "ab"[i % 2]
        if i % 10 == 3:
            trace.append((client, make_heartbeat_request(b"x", declared=4000)))
        elif i % 10 == 7:
            trace.append((client, make_heartbeat_request(b"x", declared=60000)))
        elif i % 3 == 0:
            trace.append((client, make_heartbeat_request(b"ping-%d" % i)))
        else:
            trace.append((client, make_appdata(b"record-%03d" % i * 8)))
    return trace


def _per_request_server_counters(app: str, backend: str):
    """Serve a fixed trace with a fresh domain per request; returns the
    response digest, the virtual clock, the TLB/fault and plan/gate
    counters, the folded stats of the destroyed domains and the re-entry
    counters."""
    runtime = SdradRuntime(backend=backend)
    digest = hashlib.blake2b(digest_size=8)
    if app == "nginx":
        server = NginxServer(runtime, isolation=IsolationMode.PER_REQUEST)
        server.connect("client")
        for raw in _nginx_trace():
            digest.update(server.handle("client", raw))
    else:
        server = TlsServer(
            runtime,
            isolation=IsolationMode.PER_REQUEST,
            domain_heap_size=16 * 1024,
            domain_stack_size=16 * 1024,
        )
        server.connect("a")
        server.connect("b")
        for client, raw in _tls_trace():
            digest.update(server.handle_record(client, raw))
    space = runtime.space
    plans = space.plans
    return (
        digest.hexdigest(),
        runtime.clock.now,
        (space.tlb_hits, space.tlb_misses, space.tlb_flushes, space.faults),
        (plans.built, plans.hits, plans.shootdowns, space.gate.writes),
        astuple(runtime.destroyed_stats),
        runtime.destroyed_count,
        (runtime.reentry_hits, runtime.reentry_misses),
    )


#: Recorded before domains recycled their predecessors' heap allocator and
#: stack: a recycled heap must answer the in-heap over-read with the same
#: stale bytes a freshly built one did. The TLB hit/miss/flush and plan
#: counters were re-recorded when per-request domains started to retire
#: and hand their mapped regions and key to the next init. The last
#: element, re-entry ``(hits, misses)``, lost its invalidation count when
#: a domain started to cache its entry on itself.
_SERVER_COUNTERS = {
    ("nginx", "mpk"): ('28fafa16c7ff8c17', 0.0070196999999999786, (407, 1, 3, 3), (5, 26, 3, 480), (120, 114, 6, 6, 0, 0, 0, {'page-fault': 3, 'heap-integrity': 3}), 120, (0, 120)),
    ("nginx", "cheri"): ('28fafa16c7ff8c17', 0.006472500000000011, (407, 1, 3, 3), (5, 26, 3, 360), (120, 114, 6, 6, 0, 0, 0, {'page-fault': 3, 'heap-integrity': 3}), 120, (0, 120)),
    ("nginx", "sfi"): ('28fafa16c7ff8c17', 0.006312509999999979, (407, 1, 3, 3), (5, 26, 3, 360), (120, 114, 6, 6, 0, 0, 0, {'page-fault': 3, 'heap-integrity': 3}), 120, (0, 120)),
    ("tls", "mpk"): ('2b6f63bd18487a2a', 0.002592059999999994, (218, 8, 3, 6), (3, 119, 3, 240), (60, 54, 6, 6, 0, 2880, 0, {'page-fault': 6}), 60, (0, 60)),
    ("tls", "cheri"): ('2b6f63bd18487a2a', 0.0023184600000000317, (218, 8, 3, 6), (3, 119, 3, 180), (60, 54, 6, 6, 0, 2880, 0, {'page-fault': 6}), 60, (0, 60)),
    ("tls", "sfi"): ('2b6f63bd18487a2a', 0.002238416000000019, (218, 8, 3, 6), (3, 119, 3, 180), (60, 54, 6, 6, 0, 2880, 0, {'page-fault': 6}), 60, (0, 60)),
}


@pytest.mark.parametrize(
    "config", sorted(_SERVER_COUNTERS), ids=lambda c: "/".join(c)
)
def test_per_request_servers_pinned(config):
    """Nginx and TLS with a fresh domain per request: responses (stale
    over-read bytes included), virtual time and every counter are exact
    functions of the trace, however the lifecycle is implemented."""
    assert _per_request_server_counters(*config) == _SERVER_COUNTERS[config]


class TestBatchedCoalescing:
    """A batched read is the sequential loop of checked loads: same
    results, same fault, same counters."""

    def _space(self, access_plans: bool = False) -> AddressSpace:
        space = AddressSpace(size=PAGE_SIZE * 16, access_plans=access_plans)
        space.page_table.map_range(0, 4 * PAGE_SIZE, pkey=0)
        return space

    def test_non_adjacent_and_degenerate_requests_keep_semantics(self):
        space = self._space()
        space.store(0, bytes(range(64)))
        out = space.load_many([(0, 4), (32, 4), (8, 0), (8, 4)])
        assert out == [bytes(range(4)), bytes(range(32, 36)), b"", bytes(range(8, 12))]

    def test_load_fault_identity_matches_sequential(self):
        batched = self._space()
        sequential = self._space()
        # Run starts mapped and extends into the unmapped page 4.
        requests = [
            (4 * PAGE_SIZE - 16, 8),
            (4 * PAGE_SIZE - 8, 8),
            (4 * PAGE_SIZE, 8),
        ]
        with pytest.raises(MemoryError_) as batch_exc:
            batched.load_many(requests)
        seq_exc = None
        for address, length in requests:
            try:
                sequential.load(address, length)
            except MemoryError_ as exc:
                seq_exc = exc
                break
        assert str(batch_exc.value) == str(seq_exc)
        assert type(batch_exc.value) is type(seq_exc)
        assert batched.faults == sequential.faults
        # The loads before the fault count, as in the loop.
        assert batched.loads == sequential.loads
        assert batched.tlb_hits == sequential.tlb_hits
        assert batched.tlb_misses == sequential.tlb_misses

    def test_plan_batched_ops_match_space_semantics(self):
        space = self._space(access_plans=True)
        space.store(0, bytes(range(64)))
        plan = space.plans.checked_plan(0, PAGE_SIZE, "rw")
        # Mixed in/out-of-window batches: per-item fallback keeps results
        # identical to the space-level batched path.
        requests = [(0, 8), (8, 8), (2 * PAGE_SIZE, 4)]
        assert plan.load_many(requests) == space.load_many(requests)
