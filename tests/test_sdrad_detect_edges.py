"""Edge cases for fault detection: discarded stacks, double faults, batches.

These exercise the seams between the detection mechanisms (detect.py) and
the rewind machinery: a canary check racing a discard, a domain that
faults again on its retry attempt, and detection of one poisoned request
inside a pipelined batch.
"""

from __future__ import annotations

import pytest

from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.sdrad.detect import DetectionMechanism
from repro.sdrad.policy import RetryPolicy
from repro.sdrad.runtime import SdradRuntime

ATTACK_LONG_KEY = b"get " + b"K" * 270 + b"\r\n"


def _smash_canary(handle):
    """Overflow a 16-byte stack buffer so the epilogue canary check fires."""
    frame = handle.push_frame("victim")
    buf = frame.alloca(16)
    # Overrun by a few words only: far enough to clobber the canary slot,
    # short enough not to fault on an unmapped page first.
    frame.write_buffer(buf, b"A" * 31)
    handle.pop_frame(frame)


class TestCanaryCheckOnDiscardedDomain:
    def test_smashed_canary_is_detected(self, runtime, domain):
        result = runtime.execute(domain.udi, _smash_canary)
        assert not result.ok
        assert result.fault.mechanism is DetectionMechanism.STACK_CANARY

    def test_canary_sweep_after_discard_is_clean(self, runtime, domain):
        """The rewind unwinds every frame; a later ``check_canaries`` sweep
        must not re-raise for the smashed-but-discarded frame."""
        result = runtime.execute(domain.udi, _smash_canary)
        assert not result.ok
        assert domain.stack.depth == 0
        domain.stack.check_canaries()  # must not raise

    def test_domain_is_reusable_after_canary_discard(self, runtime, domain):
        runtime.execute(domain.udi, _smash_canary)

        def benign(handle):
            frame = handle.push_frame("clean")
            try:
                buf = frame.alloca(16)
                frame.write_buffer(buf, b"ok")
                return bytes(frame.read_buffer(buf, 2))
            finally:
                handle.pop_frame(frame)

        result = runtime.execute(domain.udi, benign)
        assert result.ok
        assert result.value == b"ok"


class TestDoubleFaultDuringRewind:
    """A domain that faults again on its post-rewind retry attempt."""

    def test_retry_fault_stays_contained(self, runtime, domain):
        result = runtime.execute(
            domain.udi, _smash_canary, policy=RetryPolicy(max_retries=1)
        )
        assert not result.ok
        assert result.retries == 1
        assert result.fault.mechanism is DetectionMechanism.STACK_CANARY

    def test_both_faults_and_rewinds_are_counted(self, runtime, domain):
        result = runtime.execute(
            domain.udi, _smash_canary, policy=RetryPolicy(max_retries=1)
        )
        assert domain.stats.faults == 2
        assert domain.stats.rewinds == 2
        assert domain.stats.retries == 1
        assert domain.stats.fault_kinds == {"stack-canary": 2}
        assert result.recovery_time == pytest.approx(2 * runtime.cost.rewind)

    def test_context_stack_unwound_and_domain_reusable(self, runtime, domain):
        runtime.execute(domain.udi, _smash_canary, policy=RetryPolicy(max_retries=1))
        # The entry context was popped despite two nested faults ...
        result = runtime.execute(domain.udi, lambda handle: 42)
        assert result.ok and result.value == 42

    def test_zero_retry_budget_means_single_rewind(self, runtime, domain):
        result = runtime.execute(
            domain.udi, _smash_canary, policy=RetryPolicy(max_retries=0)
        )
        assert not result.ok
        assert result.retries == 0
        assert domain.stats.rewinds == 1


class TestDetectionInsideBatch:
    """One poisoned request pipelined among good ones (handle_batch)."""

    @pytest.fixture
    def server(self):
        srv = MemcachedServer(SdradRuntime(), isolation=IsolationMode.PER_CONNECTION)
        srv.connect("mallory")
        return srv

    def test_only_the_offender_errors(self, server):
        responses = server.handle_batch(
            "mallory",
            [
                b"set foo 7 0 5\r\nhello\r\n",
                ATTACK_LONG_KEY,
                b"get foo\r\n",
            ],
        )
        assert responses[0] == b"STORED\r\n"
        assert responses[1].startswith(b"SERVER_ERROR")
        assert responses[2] == b"VALUE foo 7 5\r\nhello\r\nEND\r\n"

    def test_batch_fault_is_attributed_to_stack_canary(self, server):
        server.handle_batch("mallory", [b"get ok\r\n", ATTACK_LONG_KEY])
        udi = server._connections["mallory"]
        stats = server.runtime.domain(udi).stats
        assert stats.fault_kinds.get("stack-canary", 0) >= 1

    def test_poisoned_batch_has_no_partial_effects(self, server):
        """Nothing from the faulted batch entry is applied; the per-request
        replay then applies each good command exactly once."""
        server.handle_batch(
            "mallory",
            [b"set a 0 0 1\r\nx\r\n", ATTACK_LONG_KEY, b"set b 0 0 1\r\ny\r\n"],
        )
        assert server.handle("mallory", b"get a\r\n").startswith(b"VALUE a 0 1")
        assert server.handle("mallory", b"get b\r\n").startswith(b"VALUE b 0 1")
        assert server.metrics.server_errors == 1
        assert server.metrics.rewinds == 1
