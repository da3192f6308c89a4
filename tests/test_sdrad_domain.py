"""Tests for Domain objects and their discard semantics."""

from __future__ import annotations

import pytest

from repro.errors import DomainNotFound
from repro.sdrad.constants import DomainFlags, DomainState
from repro.sdrad.policy import RetryPolicy
from repro.sdrad.runtime import SdradRuntime


class TestLifecycleStates:
    """State moves are the runtime's: ``execute`` enters and exits a
    domain, ``domain_destroy`` retires it. That only a clean exit counts
    as one is pinned per outcome by ``tests/test_entry_contract.py``
    (``test_entry_contract_pinned``: ``clean_exits`` stays 0 for a fault,
    an abort and a logic error)."""

    def test_initial_state(self, domain):
        assert domain.state is DomainState.INITIALIZED

    def test_active_exit_cycle(self, runtime, domain):
        inside = runtime.execute(domain.udi, lambda h: domain.state).value
        assert inside is DomainState.ACTIVE
        assert domain.state is DomainState.INITIALIZED
        assert (domain.stats.entries, domain.stats.clean_exits) == (1, 1)

    def test_destroyed_cannot_activate(self, runtime, domain):
        runtime.domain_destroy(domain.udi)
        assert domain.state is DomainState.DESTROYED
        with pytest.raises(DomainNotFound):
            runtime.execute(domain.udi, lambda h: None)
        assert domain.stats.entries == 0

    def test_faulted_can_reactivate(self, runtime, domain):
        states = []

        def body(handle):
            states.append(domain.state)
            if len(states) == 1:
                handle.store(0, b"fault")

        result = runtime.execute(domain.udi, body, policy=RetryPolicy(max_retries=1))
        assert result.ok and result.retries == 1
        # The retry re-entered the domain its fault had rewound.
        assert states == [DomainState.ACTIVE, DomainState.ACTIVE]
        assert (domain.stats.entries, domain.stats.faults) == (2, 1)
        assert domain.state is DomainState.INITIALIZED


class TestDiscard:
    def test_discard_resets_heap_and_stack(self, domain):
        domain.heap.malloc(128)
        domain.stack.push_frame("f")
        domain.discard()
        assert domain.heap.stats().live_blocks == 0
        assert domain.stack.depth == 0
        assert domain.state is DomainState.INITIALIZED

    def test_discard_counts_rewinds(self, domain):
        domain.discard()
        domain.discard()
        assert domain.stats.rewinds == 2

    def test_discard_without_scrub_returns_zero_pages(self, domain):
        assert domain.discard() == 0

    def test_discard_with_scrub_flag_scrubs(self):
        runtime = SdradRuntime(scrub_mode="eager")
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD
        )
        pages = domain.discard()
        expected = (domain.heap_size + domain.stack_size) // 4096
        assert pages == expected

    def test_lazy_scrub_discard_touches_no_pages(self, runtime):
        # scrub_mode defaults to "lazy": discard cost is flat regardless of
        # domain size — zero pages touched at rewind time.
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD
        )
        assert runtime.scrub_mode == "lazy"
        assert domain.discard() == 0

    def test_lazy_scrub_zeroes_reallocated_block(self, runtime):
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD
        )
        addr = domain.heap.malloc(64)
        runtime.space.raw_store(addr, b"S3CR3T" * 10)
        domain.discard()
        # The stale bytes survive the discard itself (that's the point) ...
        assert b"S3CR3T" in bytes(
            runtime.space.raw_load(domain.heap_base, domain.heap_size)
        )
        # ... but a fresh allocation never observes them.
        again = domain.heap.malloc(64)
        capacity = domain.heap.payload_capacity(again)
        assert runtime.space.raw_load(again, capacity) == b"\x00" * capacity

    def test_lazy_scrub_zeroes_stack_on_reuse(self, runtime):
        domain = runtime.domain_init(
            flags=DomainFlags.RETURN_TO_PARENT | DomainFlags.SCRUB_ON_DISCARD
        )
        frame = domain.stack.push_frame("taint")
        buf = frame.alloca(64)
        runtime.space.raw_store(buf, b"S3CR3T" * 10)
        domain.discard()
        assert domain.stack.scrub_pending
        domain.stack.push_frame("fresh")
        stack_bytes = runtime.space.raw_load(domain.stack_base, domain.stack_size)
        assert b"S3CR3T" not in stack_bytes


class TestProperties:
    def test_isolated_heap_by_default(self, domain):
        assert domain.is_isolated_heap

    def test_nonisolated_flag(self, runtime):
        domain = runtime.domain_init(flags=DomainFlags.NONISOLATED_HEAP)
        assert not domain.is_isolated_heap

    def test_rewind_flag(self, runtime, domain):
        assert domain.rewinds_on_fault  # conftest uses RETURN_TO_PARENT
        plain = runtime.domain_init(flags=DomainFlags.DEFAULT)
        assert not plain.rewinds_on_fault

    def test_footprint(self, domain):
        assert domain.footprint_bytes() == domain.heap_size + domain.stack_size

    def test_fault_kind_accounting(self, domain):
        domain.stats.record_fault("stack-canary")
        domain.stats.record_fault("stack-canary")
        domain.stats.record_fault("pkey-violation")
        assert domain.stats.faults == 3
        assert domain.stats.fault_kinds["stack-canary"] == 2
