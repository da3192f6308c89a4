"""Tests for recovery policies."""

from __future__ import annotations

import pytest

from repro.errors import SegmentationFault
from repro.memory import available_backends
from repro.sdrad.constants import DomainFlags
from repro.sdrad.detect import classify
from repro.sdrad.policy import (
    AbortPolicy,
    ProcessCrashed,
    RetryPolicy,
    RewindPolicy,
    default_policy,
    make_policy,
)
from repro.sdrad.runtime import SdradRuntime


@pytest.fixture
def report():
    return classify(SegmentationFault(0x10), domain_udi=1)


class TestRewindPolicy:
    def test_always_rewinds(self, report):
        decision = RewindPolicy().decide(report, attempt=1)
        assert decision.rewind and not decision.retry and not decision.abort

    def test_is_default(self):
        assert isinstance(default_policy(), RewindPolicy)


class TestQuarantinePolicy:
    @pytest.mark.parametrize("backend", available_backends())
    def test_fault_runs_exactly_like_rewind(self, backend):
        def run(policy):
            runtime = SdradRuntime(backend=backend)
            victim = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            attacker = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            secret = runtime.execute(victim.udi, lambda h: h.malloc(16)).value
            results = [
                runtime.execute(
                    attacker.udi,
                    lambda h: h.space.store(secret, b"overwrite"),
                    policy=policy,
                ),
                runtime.execute(attacker.udi, lambda h: "alive", policy=policy),
            ]
            return results, runtime.clock.now, attacker.stats

        quarantine = run(make_policy("quarantine"))
        assert not quarantine[0][0].ok
        assert quarantine == run(RewindPolicy())
        assert make_policy("quarantine").name == "quarantine"


class TestAbortPolicy:
    def test_always_aborts(self, report):
        decision = AbortPolicy().decide(report, attempt=1)
        assert decision.abort and not decision.rewind


class TestRetryPolicy:
    def test_retries_within_budget(self, report):
        policy = RetryPolicy(max_retries=2)
        assert policy.decide(report, attempt=1).retry
        assert policy.decide(report, attempt=2).retry
        assert not policy.decide(report, attempt=3).retry

    def test_zero_retries_behaves_like_rewind(self, report):
        policy = RetryPolicy(max_retries=0)
        decision = policy.decide(report, attempt=1)
        assert decision.rewind and not decision.retry and not decision.abort

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_always_rewinds_never_aborts(self, report):
        policy = RetryPolicy(max_retries=1)
        for attempt in range(1, 5):
            decision = policy.decide(report, attempt)
            assert decision.rewind and not decision.abort


class TestProcessCrashed:
    def test_carries_report(self, report):
        crash = ProcessCrashed(report)
        assert crash.report is report
        assert "page-fault" in str(crash)
