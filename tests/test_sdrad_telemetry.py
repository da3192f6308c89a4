"""Tests for runtime telemetry and cross-subsystem consistency."""

from __future__ import annotations

import json

import pytest

from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import consistency_check, snapshot


def busy_runtime() -> SdradRuntime:
    runtime = SdradRuntime()
    a = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    b = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    runtime.execute(a.udi, lambda h: h.store(h.malloc(32), b"data"))
    runtime.execute(a.udi, lambda h: h.store(0, b"fault"))  # rewind
    runtime.execute(b.udi, lambda h: None)
    runtime.copy_into(b.udi, b"staged")
    return runtime


class TestSnapshot:
    def test_totals(self):
        data = snapshot(busy_runtime())
        assert data["domain_count"] == 2
        assert data["totals"]["faults"] == 1
        assert data["totals"]["rewinds"] == 1
        assert data["totals"]["entries"] == 3
        assert data["totals"]["fault_mix"] == {"page-fault": 1}

    def test_recovery_time_accounted(self):
        runtime = busy_runtime()
        data = snapshot(runtime)
        assert data["totals"]["recovery_time"] == pytest.approx(
            runtime.cost.rewind
        )

    def test_per_domain_rows(self):
        data = snapshot(busy_runtime())
        by_udi = {d["udi"]: d for d in data["domains"]}
        assert by_udi[1]["faults"] == 1
        assert by_udi[2]["faults"] == 0
        assert by_udi[2]["bytes_copied_in"] == 6

    def test_memory_counters_present(self):
        data = snapshot(busy_runtime())
        memory = data["memory"]
        assert memory["checked_stores"] > 0
        assert memory["gate_writes"] > 0
        assert "wrpkru_writes" not in memory
        assert memory["mapped_bytes"] <= memory["space_bytes"]

    def test_json_serialisable(self):
        json.dumps(snapshot(busy_runtime()))

    def test_keyvirt_section_when_enabled(self):
        runtime = SdradRuntime(key_virtualization=True)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: None)
        data = snapshot(runtime)
        assert data["key_virtualization"]["binds"] == 1
        assert data["key_virtualization"]["bound_domains"] == 1

    def test_no_keyvirt_section_by_default(self):
        assert "key_virtualization" not in snapshot(SdradRuntime())


class TestConsistency:
    def test_clean_runtime_has_no_problems(self):
        assert consistency_check(busy_runtime()) == []

    def test_heavy_mixed_usage_stays_consistent(self):
        runtime = SdradRuntime()
        domains = [
            runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            for _ in range(5)
        ]
        for i, domain in enumerate(domains * 4):
            if i % 3 == 0:
                runtime.execute(domain.udi, lambda h: h.store(0, b"x"))
            else:
                runtime.execute(domain.udi, lambda h: h.malloc(64))
        assert consistency_check(runtime) == []

    def test_after_destroy_books_balance(self):
        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: h.store(0, b"x"))
        runtime.domain_destroy(domain.udi)
        assert consistency_check(runtime) == []

    def test_destroy_folds_stats_into_runtime_aggregate(self):
        runtime = SdradRuntime()
        for _ in range(3):
            domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            runtime.execute(domain.udi, lambda h: h.store(0, b"x"))
            runtime.copy_into(domain.udi, b"abc")
            runtime.domain_destroy(domain.udi)
        retired = runtime.destroyed_stats
        assert runtime.destroyed_count == 3
        assert (retired.entries, retired.faults, retired.rewinds) == (3, 3, 3)
        assert retired.fault_kinds == {"page-fault": 3}
        assert retired.bytes_copied_in == 9
        # The snapshot still reports live domains only.
        assert snapshot(runtime)["totals"]["faults"] == 0


class TestObsConsistency:
    """The pushed rewind counter is cross-checked against the runtime's
    own lifetime total (live domains plus the destroyed-domain aggregate),
    so silent drift fails a tier-1 test instead of shipping wrong metrics.
    The hub reads the other lifecycle counters from the runtime."""

    def busy_observed_runtime(self) -> SdradRuntime:
        from repro.obs import Observability

        runtime = SdradRuntime(obs=Observability())
        a = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        b = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(a.udi, lambda h: h.store(h.malloc(32), b"data"))
        runtime.execute(a.udi, lambda h: h.store(0, b"fault"))  # rewind
        runtime.execute(b.udi, lambda h: None)
        runtime.domain_destroy(b.udi)  # ephemeral: stats folded at destroy
        return runtime

    def test_observed_runtime_is_consistent(self):
        assert consistency_check(self.busy_observed_runtime()) == []

    def test_rewind_drift_after_destroying_faulted_domain(self):
        runtime = self.busy_observed_runtime()
        a = runtime.domains()[1]
        runtime.domain_destroy(a.udi)  # takes its fault and rewind with it
        assert consistency_check(runtime) == []
        runtime.obs.registry.counter("sdrad_rewinds_total", cause="x").increment()
        problems = consistency_check(runtime)
        assert any("sdrad_rewinds_total" in p for p in problems)

    def test_retries_count_as_one_entry(self):
        from repro.obs import Observability
        from repro.sdrad.policy import RetryPolicy

        runtime = SdradRuntime(obs=Observability())
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(
            domain.udi, lambda h: h.store(0, b"x"), policy=RetryPolicy(max_retries=2)
        )
        assert domain.stats.entries == 3
        assert domain.stats.retries == 2
        registry = runtime.obs.registry
        assert registry.counter_total("sdrad_domain_entries_total") == 1
        assert consistency_check(runtime) == []

    def test_snapshot_obs_block_serialises(self):
        data = snapshot(self.busy_observed_runtime())
        json.dumps(data["obs"])
        assert data["obs"]["metrics"][
            "counter/sdrad_domains_destroyed_total"
        ] == 1
