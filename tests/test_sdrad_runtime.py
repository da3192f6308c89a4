"""Tests for the SDRaD runtime: domains, entry/exit, rewind-and-discard."""

from __future__ import annotations

import pytest

from repro.errors import (
    AllocationFailure,
    DomainNotFound,
    DomainStateError,
    OutOfDomains,
    SdradError,
)
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_SIZE
from repro.memory.mpk import PKEY_DEFAULT
from repro.memory.snapshot import capture, differs
from repro.sdrad.constants import ROOT_UDI, DomainFlags, DomainState
from repro.sdrad.detect import DetectionMechanism
from repro.sdrad.policy import AbortPolicy, ProcessCrashed, RetryPolicy
from repro.sdrad.runtime import SdradRuntime


def _wild_write_into(runtime, address):
    def attack(handle):
        handle.store(address, b"PWNED")

    return attack


class TestDomainLifecycle:
    def test_init_assigns_distinct_pkeys(self, runtime):
        d1 = runtime.domain_init()
        d2 = runtime.domain_init()
        assert d1.pkey != d2.pkey
        assert d1.udi != d2.udi

    def test_init_charges_setup_cost(self, runtime):
        before = runtime.clock.now
        runtime.domain_init()
        assert runtime.clock.now > before

    def test_pkey_exhaustion(self, runtime):
        for _ in range(15):
            runtime.domain_init()
        with pytest.raises(OutOfDomains):
            runtime.domain_init()

    def test_destroy_frees_pkey_and_regions(self, runtime):
        created = [runtime.domain_init() for _ in range(15)]
        for domain in created:
            runtime.domain_destroy(domain.udi)
        # all 15 keys are reusable again
        for _ in range(15):
            runtime.domain_init()

    def test_destroy_unknown_rejected(self, runtime):
        with pytest.raises(DomainNotFound):
            runtime.domain_destroy(999)

    def test_destroy_root_rejected(self, runtime):
        with pytest.raises(SdradError):
            runtime.domain_destroy(ROOT_UDI)

    def test_destroy_entered_domain_rejected(self, runtime, domain):
        def inner(handle):
            runtime.domain_destroy(domain.udi)

        with pytest.raises(DomainStateError):
            runtime.execute(domain.udi, inner)

    def test_explicit_udi(self, runtime):
        domain = runtime.domain_init(udi=77)
        assert domain.udi == 77
        with pytest.raises(DomainStateError):
            runtime.domain_init(udi=77)

    def test_auto_udi_skips_explicitly_taken_udis(self, runtime):
        explicit = runtime.domain_init(udi=2)
        first = runtime.domain_init()
        second = runtime.domain_init()
        assert (first.udi, second.udi) == (1, 3)
        assert runtime.domain_init().udi == 4
        # A destroyed explicit udi is not handed out again by the counter.
        runtime.domain_destroy(explicit.udi)
        assert runtime.domain_init().udi == 5

    def test_auto_udis_without_explicit_callers_are_sequential(self, runtime):
        udis = []
        for _ in range(3):
            domain = runtime.domain_init()
            udis.append(domain.udi)
            runtime.domain_destroy(domain.udi)
        assert udis == [1, 2, 3]

    def test_unknown_parent_rejected(self, runtime):
        with pytest.raises(DomainNotFound):
            runtime.domain_init(parent_udi=123)

    def test_region_recycling_after_destroy(self, runtime):
        """Per-connection churn must not exhaust the address space."""
        for _ in range(200):
            domain = runtime.domain_init(heap_size=64 * 1024, stack_size=16 * 1024)
            runtime.domain_destroy(domain.udi)


    @pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
    @pytest.mark.parametrize("heap_from", ["bump", "free-list"])
    def test_failed_init_rolls_back_its_heap(self, backend, heap_from):
        """A heap that fits followed by a stack that does not must leave no
        trace: no mapping, no lost region, no page under a recycled key."""
        runtime = SdradRuntime(space=AddressSpace(size=4 << 20, backend=backend))
        table = runtime.space.page_table
        stack_size = 64 * 1024
        if heap_from == "bump":
            heap_size = runtime.space.size - runtime._bump - PAGE_SIZE
        else:
            heap_size = 64 * 1024
            freed = runtime.domain_init(heap_size=heap_size, stack_size=PAGE_SIZE)
            runtime.domain_destroy(freed.udi)
            stack_size = runtime.space.size - runtime._bump + PAGE_SIZE
        mapped, regions = table.mapped_bytes(), list(runtime._free_regions)
        with pytest.raises(AllocationFailure):
            runtime.domain_init(heap_size=heap_size, stack_size=stack_size)
        assert table.mapped_bytes() == mapped
        assert runtime._free_regions == regions
        next_key = runtime.space.pkeys.alloc()
        assert table.pages_tagged(next_key) == []
        runtime.space.pkeys.free(next_key)
        runtime.domain_init(heap_size=64 * 1024, stack_size=64 * 1024)
        assert table.mapped_bytes() == mapped + 128 * 1024

    @pytest.mark.parametrize("backend", ["mpk", "cheri", "sfi"])
    @pytest.mark.parametrize(
        "sizes",
        [{"heap_size": 0}, {"heap_size": -2 * PAGE_SIZE}, {"stack_size": 0}],
        ids=["heap-0", "heap-negative", "stack-0"],
    )
    def test_rejected_sizes_take_nothing(self, backend, sizes):
        """A size the heap allocator or the stack refuses fails before the
        init takes anything: no key, mapping, region, virtual time or udi."""
        runtime = SdradRuntime(backend=backend)
        space = runtime.space
        freed = runtime.domain_init()
        runtime.domain_init()
        runtime.domain_destroy(freed.udi)  # leaves regions on the free list

        def state():
            return (
                space.pkeys.allocated,
                space.page_table.mapped_bytes(),
                runtime._bump,
                list(runtime._free_regions),
                runtime.clock.now,
            )

        before = state()
        for _ in range(2):
            with pytest.raises(SdradError):
                runtime.domain_init(**sizes)
        assert state() == before
        assert runtime.domain_init().udi == 3


class TestExecuteCleanPath:
    def test_returns_value(self, runtime, domain):
        result = runtime.execute(domain.udi, lambda h: 42)
        assert result.ok
        assert result.value == 42
        assert result.unwrap() == 42

    def test_charges_roundtrip_cost(self, runtime, domain):
        before = runtime.clock.now
        runtime.execute(domain.udi, lambda h: None)
        elapsed = runtime.clock.now - before
        assert elapsed == pytest.approx(runtime.cost.domain_roundtrip())

    def test_handle_malloc_store_load(self, runtime, domain):
        def work(handle):
            addr = handle.malloc(32)
            handle.store(addr, b"payload")
            return handle.load(addr, 7)

        assert runtime.execute(domain.udi, work).value == b"payload"

    def test_pkru_restored_after_exit(self, runtime, domain):
        before = runtime.space.pkru.snapshot()
        runtime.execute(domain.udi, lambda h: None)
        assert runtime.space.pkru.snapshot() == before

    def test_reentrancy_rejected(self, runtime, domain):
        def inner(handle):
            runtime.execute(domain.udi, lambda h: None)

        with pytest.raises(DomainStateError, match="re-entered"):
            runtime.execute(domain.udi, inner)

    def test_stats_track_entries(self, runtime, domain):
        runtime.execute(domain.udi, lambda h: None)
        runtime.execute(domain.udi, lambda h: None)
        assert domain.stats.entries == 2
        assert domain.stats.clean_exits == 2

    def test_logic_errors_propagate(self, runtime, domain):
        def buggy(handle):
            raise KeyError("application bug")

        with pytest.raises(KeyError):
            runtime.execute(domain.udi, buggy)
        # trusted state restored even so
        assert runtime.contexts.depth == 0


class TestIsolationEnforcement:
    def test_domain_cannot_touch_root_heap(self, runtime, domain):
        result = runtime.execute(
            domain.udi, _wild_write_into(runtime, runtime.root.heap_base)
        )
        assert not result.ok
        assert result.fault.mechanism is DetectionMechanism.PKEY_VIOLATION

    def test_domain_cannot_touch_sibling(self, runtime):
        a = runtime.domain_init()
        b = runtime.domain_init()
        result = runtime.execute(a.udi, _wild_write_into(runtime, b.heap_base))
        assert not result.ok
        assert result.fault.mechanism is DetectionMechanism.PKEY_VIOLATION

    def test_victim_memory_unchanged_after_attack(self, runtime):
        a = runtime.domain_init()
        b = runtime.domain_init()
        runtime.execute(b.udi, lambda h: h.store(h.malloc(32), b"victim data!"))
        snap = capture(runtime.space, b.heap_base, b.heap_size)
        runtime.execute(a.udi, _wild_write_into(runtime, b.heap_base + 64))
        assert differs(runtime.space, snap) == []

    def test_domain_can_use_own_memory(self, runtime, domain):
        def work(handle):
            addr = handle.malloc(16)
            handle.store(addr, b"mine")
            return handle.load(addr, 4)

        assert runtime.execute(domain.udi, work).value == b"mine"

    def test_nonisolated_heap_shares_parent_key(self, runtime):
        child = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.NONISOLATED_HEAP
        )

        def touch_root(handle):
            handle.store(runtime.root.heap_base + 32, b"shared ok")

        result = runtime.execute(child.udi, touch_root)
        assert result.ok


class TestRewind:
    def test_fault_returns_error_result(self, runtime, domain):
        result = runtime.execute(
            domain.udi, _wild_write_into(runtime, runtime.root.heap_base)
        )
        assert not result.ok
        assert result.fault is not None
        assert result.recovery_time > 0

    def test_rewind_charges_paper_cost(self, runtime, domain):
        result = runtime.execute(
            domain.udi, _wild_write_into(runtime, runtime.root.heap_base)
        )
        assert result.recovery_time == pytest.approx(runtime.cost.rewind)

    def test_domain_usable_after_rewind(self, runtime, domain):
        runtime.execute(domain.udi, _wild_write_into(runtime, runtime.root.heap_base))
        result = runtime.execute(domain.udi, lambda h: "alive")
        assert result.ok and result.value == "alive"

    def test_rewind_discards_heap(self, runtime, domain):
        def leaky(handle):
            handle.malloc(1024)
            handle.store(0, b"x")  # null-page fault after allocating

        runtime.execute(domain.udi, leaky)
        assert domain.heap.stats().live_blocks == 0

    def test_rewind_unwinds_stack(self, runtime, domain):
        def deep(handle):
            handle.push_frame("a")
            handle.push_frame("b")
            handle.store(0, b"x")

        runtime.execute(domain.udi, deep)
        assert domain.stack.depth == 0

    def test_rewind_counted_in_stats(self, runtime, domain):
        runtime.execute(domain.udi, _wild_write_into(runtime, runtime.root.heap_base))
        assert domain.stats.faults == 1
        assert domain.stats.rewinds == 1
        assert domain.stats.fault_kinds == {"pkey-violation": 1}

    def test_scrub_flag_scrubs_pages(self):
        runtime = SdradRuntime(scrub_mode="eager")
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD
        )

        def leave_secret_then_fault(handle):
            addr = handle.malloc(64)
            handle.store(addr, b"S3CR3T" * 10)
            handle.store(0, b"x")

        runtime.execute(domain.udi, leave_secret_then_fault)
        heap_bytes = runtime.space.raw_load(domain.heap_base, domain.heap_size)
        assert b"S3CR3T" not in heap_bytes

    def test_lazy_scrub_never_leaks_into_new_allocations(self, runtime):
        # Default scrub_mode="lazy": the rewind leaves stale bytes behind,
        # but the next entry's allocations are zero-filled on hand-out.
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD
        )

        def leave_secret_then_fault(handle):
            addr = handle.malloc(64)
            handle.store(addr, b"S3CR3T" * 10)
            handle.store(0, b"x")

        runtime.execute(domain.udi, leave_secret_then_fault)

        def read_fresh_block(handle):
            addr = handle.malloc(64)
            return handle.load(addr, handle.capacity(addr))

        result = runtime.execute(domain.udi, read_fresh_block)
        assert result.ok
        assert bytes(result.value).strip(b"\x00") == b""

    def test_no_scrub_leaves_garbage(self, runtime, domain):
        def leave_secret_then_fault(handle):
            addr = handle.malloc(64)
            handle.store(addr, b"S3CR3T" * 10)
            handle.store(0, b"x")

        runtime.execute(domain.udi, leave_secret_then_fault)
        heap_bytes = runtime.space.raw_load(domain.heap_base, domain.heap_size)
        assert b"S3CR3T" in heap_bytes

    def test_trace_records_fault_and_rewind(self, runtime, domain):
        runtime.execute(domain.udi, _wild_write_into(runtime, runtime.root.heap_base))
        assert domain.stats.faults == 1
        assert domain.stats.rewinds == 1

    def test_check_heap_on_exit_catches_silent_corruption(self, runtime):
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.CHECK_HEAP_ON_EXIT
        )

        def silent_uaf(handle):
            a = handle.malloc(32)
            capacity = handle.capacity(a)
            handle.malloc(32)
            handle.free(a)
            # dangling write smashing the neighbour's header, then return
            # "successfully" — only the exit sweep can catch this
            handle.store(a, b"Z" * (capacity + 8 + 16))
            return "looks fine"

        result = runtime.execute(domain.udi, silent_uaf)
        assert not result.ok
        assert result.fault.mechanism is DetectionMechanism.HEAP_INTEGRITY


class TestPolicies:
    def test_abort_policy_raises_process_crashed(self, runtime, domain):
        with pytest.raises(ProcessCrashed):
            runtime.execute(
                domain.udi,
                _wild_write_into(runtime, runtime.root.heap_base),
                policy=AbortPolicy(),
            )
        assert runtime.contexts.depth == 0

    def test_retry_policy_reexecutes(self, runtime, domain):
        attempts = []

        def flaky(handle):
            attempts.append(1)
            if len(attempts) < 3:
                handle.store(0, b"x")
            return "eventually"

        result = runtime.execute(domain.udi, flaky, policy=RetryPolicy(max_retries=5))
        assert result.ok
        assert result.value == "eventually"
        assert result.retries == 2

    def test_retry_budget_exhaustion_returns_error(self, runtime, domain):
        def always_faults(handle):
            handle.store(0, b"x")

        result = runtime.execute(
            domain.udi, always_faults, policy=RetryPolicy(max_retries=2)
        )
        assert not result.ok
        assert result.retries == 2


class TestNestedDomains:
    def test_nested_execution(self, runtime):
        outer = runtime.domain_init()
        inner = runtime.domain_init()

        def outer_fn(handle):
            result = runtime.execute(inner.udi, lambda h: "deep")
            return ("outer", result.value)

        assert runtime.execute(outer.udi, outer_fn).value == ("outer", "deep")

    def test_inner_fault_contained_from_outer(self, runtime):
        outer = runtime.domain_init()
        inner = runtime.domain_init()

        def outer_fn(handle):
            result = runtime.execute(
                inner.udi, _wild_write_into(runtime, runtime.root.heap_base)
            )
            return "outer survived" if not result.ok else "?"

        result = runtime.execute(outer.udi, outer_fn)
        assert result.ok
        assert result.value == "outer survived"

    def test_pkru_restored_through_nesting(self, runtime):
        outer = runtime.domain_init()
        inner = runtime.domain_init()
        before = runtime.space.pkru.snapshot()

        def outer_fn(handle):
            runtime.execute(inner.udi, lambda h: None)
            # back in the outer domain: its own memory must be accessible
            addr = handle.malloc(8)
            handle.store(addr, b"still ok")
            return True

        assert runtime.execute(outer.udi, outer_fn).value
        assert runtime.space.pkru.snapshot() == before


class TestUnisolatedExecution:
    def test_clean_run_returns_value(self, runtime):
        assert runtime.execute_unisolated(lambda h: 7) == 7

    def test_fault_crashes_process(self, runtime):
        with pytest.raises(ProcessCrashed):
            runtime.execute_unisolated(lambda h: h.store(0, b"x"))

    def test_no_isolation_cost(self, runtime):
        before = runtime.clock.now
        runtime.execute_unisolated(lambda h: None)
        assert runtime.clock.now == before

    def test_logic_errors_propagate_unwrapped(self, runtime):
        with pytest.raises(ValueError):
            runtime.execute_unisolated(lambda h: (_ for _ in ()).throw(ValueError()))


class TestDataMovement:
    def test_copy_into_and_out(self, runtime, domain):
        addr = runtime.copy_into(domain.udi, b"cross-domain payload")
        assert runtime.copy_out(domain.udi, addr, 20) == b"cross-domain payload"

    def test_copy_tracked_in_stats(self, runtime, domain):
        runtime.copy_into(domain.udi, b"12345678")
        assert domain.stats.bytes_copied_in == 8

    def test_copied_data_visible_inside_domain(self, runtime, domain):
        addr = runtime.copy_into(domain.udi, b"hello")

        def read_it(handle):
            return handle.load(addr, 5)

        assert runtime.execute(domain.udi, read_it).value == b"hello"


class TestRootDomain:
    def test_root_exists_with_default_key(self, runtime):
        assert runtime.root.udi == ROOT_UDI
        assert runtime.root.pkey == PKEY_DEFAULT

    def test_domain_lookup(self, runtime, domain):
        assert runtime.domain(domain.udi) is domain
        with pytest.raises(DomainNotFound):
            runtime.domain(424242)

    def test_domains_listing(self, runtime, domain):
        udis = {d.udi for d in runtime.domains()}
        assert ROOT_UDI in udis
        assert domain.udi in udis

    def test_execute_in_destroyed_domain_rejected(self, runtime):
        domain = runtime.domain_init()
        udi = domain.udi
        runtime.domain_destroy(udi)
        with pytest.raises(DomainNotFound):
            runtime.execute(udi, lambda h: None)

    def test_domain_state_transitions(self, runtime, domain):
        assert domain.state is DomainState.INITIALIZED

        def check_active(handle):
            assert domain.state is DomainState.ACTIVE

        runtime.execute(domain.udi, check_active)
        assert domain.state is DomainState.INITIALIZED
