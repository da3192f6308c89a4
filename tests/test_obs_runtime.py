"""Runtime instrumentation tests, including the PR's acceptance check:
at ``sampling=1.0`` every rewind of a fault-injection campaign produces a
span carrying its cause and simulated duration.
"""

from __future__ import annotations

import pytest

from repro.faultinj.injector import FaultInjector
from repro.faultinj.models import FaultKind
from repro.obs import Observability
from repro.sdrad.constants import DomainFlags
from repro.sdrad.policy import ProcessCrashed, RewindPolicy
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import consistency_check


def observed_runtime(sampling: float = 1.0) -> SdradRuntime:
    return SdradRuntime(obs=Observability(sampling=sampling))


class TestExecuteSpans:
    def test_clean_execution_span(self):
        runtime = observed_runtime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: h.malloc(16))
        spans = runtime.obs.buffer.of_name("domain.execute")
        assert len(spans) == 1
        span = spans[0]
        assert span.status == "ok"
        assert span.attrs["udi"] == domain.udi
        assert span.duration > 0.0
        assert runtime.obs.buffer.tree_violations() == []

    def test_fault_produces_cause_and_duration(self):
        runtime = observed_runtime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        result = runtime.execute(domain.udi, lambda h: h.store(0, b"x"))
        assert not result.ok
        buf = runtime.obs.buffer
        [execute] = buf.of_name("domain.execute")
        assert execute.status == "fault"
        [fault] = buf.of_name("domain.fault")
        [rewind] = buf.of_name("domain.rewind")
        assert fault.parent_id == execute.span_id
        assert rewind.parent_id == execute.span_id
        assert fault.attrs["mechanism"] == result.fault.mechanism.value
        assert rewind.attrs["cause"] == result.fault.mechanism.value
        assert rewind.attrs["duration"] == pytest.approx(result.recovery_time)
        assert rewind.attrs["duration"] > 0.0

    def test_logic_error_closes_span(self):
        runtime = observed_runtime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)

        def bad(handle):
            raise KeyError("app bug, not a memory fault")

        with pytest.raises(KeyError):
            runtime.execute(domain.udi, bad)
        [execute] = runtime.obs.buffer.of_name("domain.execute")
        assert execute.status == "error"
        assert runtime.obs.open_span_count == 0

    def test_obs_defaults_to_none(self):
        runtime = SdradRuntime()
        assert runtime.obs is None
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        assert runtime.execute(domain.udi, lambda h: 42).value == 42

    def test_obs_does_not_change_virtual_time(self):
        """Instrumentation must read the clock, never charge it."""

        def workload(runtime: SdradRuntime) -> float:
            domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            runtime.execute(domain.udi, lambda h: h.malloc(32))
            runtime.execute(domain.udi, lambda h: h.store(0, b"fault"))
            runtime.domain_destroy(domain.udi)
            return runtime.clock.now

        assert workload(SdradRuntime()) == workload(observed_runtime())

    def test_lifecycle_counters(self):
        runtime = observed_runtime()
        reg = runtime.obs.registry
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: None)
        runtime.domain_destroy(domain.udi)
        assert reg.counter_total("sdrad_domains_created_total") == 1
        assert reg.counter_total("sdrad_domains_destroyed_total") == 1
        assert reg.counter_total("sdrad_domain_entries_total") == 1


class TestCampaignAcceptance:
    """Every rewind in a fault-injection sweep has a cause+duration span."""

    def test_all_rewinds_have_attributed_spans(self):
        runtime = observed_runtime(sampling=1.0)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        injector = FaultInjector(runtime)
        for kind in FaultKind:
            for _ in range(3):
                try:
                    injector.inject(domain.udi, kind, policy=RewindPolicy())
                except ProcessCrashed:
                    pytest.fail(f"{kind} escaped containment under RewindPolicy")

        obs = runtime.obs
        rewind_spans = obs.buffer.of_name("domain.rewind")
        rewinds_counted = obs.registry.counter_total("sdrad_rewinds_total")
        assert rewinds_counted > 0
        assert len(rewind_spans) == rewinds_counted
        assert len(rewind_spans) == domain.stats.rewinds
        for span in rewind_spans:
            assert isinstance(span.attrs["cause"], str) and span.attrs["cause"]
            assert span.attrs["duration"] > 0.0
            assert span.parent_id is not None  # nested under its execution
        # Causes reflect the detection mechanisms, tracked per-label.
        for span in rewind_spans:
            labelled = obs.registry.counter_total(
                "sdrad_rewinds_total", cause=span.attrs["cause"]
            )
            assert labelled > 0
        assert obs.buffer.tree_violations() == []
        assert consistency_check(runtime) == []

    def test_sampled_campaign_keeps_metrics_exact(self):
        runtime = observed_runtime(sampling=0.25)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        injector = FaultInjector(runtime)
        for _ in range(8):
            injector.inject(domain.udi, FaultKind.STACK_SMASH, policy=RewindPolicy())
        obs = runtime.obs
        # Metrics see all 8 rewinds; the span buffer only the sampled traces.
        assert obs.registry.counter_total("sdrad_rewinds_total") == 8
        assert obs.buffer.count("domain.rewind") == 2
        assert consistency_check(runtime) == []


class TestTelemetryIntegration:
    def test_snapshot_gains_obs_section(self):
        from repro.sdrad.telemetry import snapshot

        runtime = observed_runtime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: None)
        data = snapshot(runtime)
        obs_block = data["obs"]
        assert obs_block["sampling"] == 1.0
        assert obs_block["open_spans"] == 0
        assert obs_block["dropped_spans"] == 0
        assert obs_block["spans"] == len(runtime.obs.buffer)
        assert "counter/sdrad_domain_entries_total" in obs_block["metrics"]
        assert "obs" not in snapshot(SdradRuntime())

    def test_consistency_check_catches_counter_drift(self):
        runtime = observed_runtime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: h.store(0, b"fault"))
        assert consistency_check(runtime) == []
        # Drift the counter behind the runtime's back: must fail loudly.
        runtime.obs.registry.counter("sdrad_rewinds_total").increment(5)
        problems = consistency_check(runtime)
        assert any("sdrad_rewinds_total" in p for p in problems)

    def test_consistency_check_catches_orphan_spans(self):
        runtime = observed_runtime()
        runtime.obs.start_span("left.open")
        problems = consistency_check(runtime)
        assert any("still open" in p for p in problems)
