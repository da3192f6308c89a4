"""Tests for the checkpoint/restore execution mode (ablation of discard)."""

from __future__ import annotations

import pytest

from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime


PAYLOAD = b"precious domain state that must survive faults!"


@pytest.fixture
def setup(runtime):
    domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    state = {}

    def stage(handle):
        addr = handle.malloc(64)
        handle.store(addr, PAYLOAD)
        state["addr"] = addr

    runtime.execute(domain.udi, stage)
    return runtime, domain, state


class TestCheckpointRestore:
    def test_clean_call_passes_through(self, setup):
        runtime, domain, _ = setup
        result = runtime.execute_with_checkpoint(domain.udi, lambda h: 42)
        assert result.ok and result.value == 42

    def test_fault_restores_state(self, setup):
        runtime, domain, state = setup
        result = runtime.execute_with_checkpoint(
            domain.udi, lambda h: h.store(0, b"fault")
        )
        assert not result.ok
        read = runtime.execute(
            domain.udi, lambda h: h.load(state["addr"], len(PAYLOAD))
        )
        assert read.value == PAYLOAD

    def test_discard_by_contrast_loses_state(self, setup):
        """The semantic difference the ablation is about."""
        runtime, domain, state = setup
        runtime.execute(domain.udi, lambda h: h.store(0, b"fault"))  # rewinds
        # the address is no longer a live allocation after discard
        from repro.errors import InvalidFree

        with pytest.raises(InvalidFree):
            domain.heap.payload_capacity(state["addr"])

    def test_heap_usable_after_restore(self, setup):
        runtime, domain, _ = setup
        runtime.execute_with_checkpoint(domain.udi, lambda h: h.store(0, b"x"))

        def alloc_more(handle):
            addr = handle.malloc(32)
            handle.store(addr, b"new allocation")
            return handle.load(addr, 14)

        assert runtime.execute(domain.udi, alloc_more).value == b"new allocation"
        domain.heap.check()

    def test_restore_recovery_slower_than_rewind(self, setup):
        runtime, domain, _ = setup
        checkpointed = runtime.execute_with_checkpoint(
            domain.udi, lambda h: h.store(0, b"x")
        )
        rewound = runtime.execute(domain.udi, lambda h: h.store(0, b"x"))
        assert checkpointed.recovery_time > rewound.recovery_time

    def test_checkpoint_charged_even_on_success(self, setup):
        """The killer cost: every call pays a domain-sized copy up front."""
        runtime, domain, _ = setup
        footprint = domain.heap_size + domain.stack_size

        before = runtime.clock.now
        runtime.execute(domain.udi, lambda h: None)
        plain_cost = runtime.clock.now - before

        before = runtime.clock.now
        runtime.execute_with_checkpoint(domain.udi, lambda h: None)
        checkpoint_cost = runtime.clock.now - before

        assert checkpoint_cost - plain_cost == pytest.approx(
            runtime.cost.copy_time(footprint)
        )

    def test_trace_records_restore(self, setup):
        """The restore copy is reported as recovery time, on top of the rewind."""
        runtime, domain, _ = setup
        result = runtime.execute_with_checkpoint(
            domain.udi, lambda h: h.store(0, b"x")
        )
        footprint = domain.heap_size + domain.stack_size
        assert result.recovery_time == pytest.approx(
            runtime.cost.rewind + runtime.cost.copy_time(footprint)
        )


class TestCheckpointStrategySpec:
    def test_overhead_is_catastrophic_for_small_requests(self):
        from repro.resilience.strategy import RecoveryStrategyModel

        model = RecoveryStrategyModel()
        spec = model.checkpoint_restore(domain_bytes=320 * 1024)
        # a 320 KiB checkpoint per 10 µs request: several hundred percent
        assert spec.runtime_overhead > 1.0
        rewind = model.sdrad_rewind()
        assert spec.runtime_overhead > 30 * rewind.runtime_overhead

    def test_validation(self):
        from repro.resilience.strategy import RecoveryStrategyModel

        model = RecoveryStrategyModel()
        with pytest.raises(ValueError):
            model.checkpoint_restore(0)
        with pytest.raises(ValueError):
            model.checkpoint_restore(1024, request_time=0.0)
