"""Failure-path span trees: the cases that historically orphan spans.

Each test drives an ugly path — repeated faults under a retry policy, a
poisoned request inside a batch, a watchdog quarantine, a worker process
crash — and demands a well-formed span tree afterwards: every span closed,
every parent link valid, metrics in agreement with the runtime's own counts.
"""

from __future__ import annotations

import pytest

from repro.apps.cluster import NginxCluster
from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.errors import SdradError
from repro.obs import Observability
from repro.sdrad.constants import DomainFlags
from repro.sdrad.policy import ProcessCrashed, RetryPolicy
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import consistency_check
from repro.sdrad.watchdog import FaultWatchdog, WatchdogConfig

ATTACK_LONG_KEY = b"get " + b"K" * 270 + b"\r\n"
NGINX_ATTACK = b"GET /" + b"A" * 1100 + b" HTTP/1.1\r\nHost: h\r\n\r\n"


def observed_runtime() -> SdradRuntime:
    return SdradRuntime(obs=Observability())


def smash(handle):
    frame = handle.push_frame("victim")
    buf = frame.alloca(32)
    frame.write_buffer(buf, b"A" * 128)  # canary smash


class TestRepeatedFaultsUnderRetry:
    def test_each_attempt_gets_fault_and_rewind_events(self):
        runtime = observed_runtime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        result = runtime.execute(
            domain.udi, smash, policy=RetryPolicy(max_retries=1)
        )
        assert not result.ok

        buf = runtime.obs.buffer
        [execute] = buf.of_name("domain.execute")
        assert execute.status == "fault"
        assert execute.attrs["retries"] == 1
        faults = buf.of_name("domain.fault")
        rewinds = buf.of_name("domain.rewind")
        assert len(faults) == len(rewinds) == 2  # first attempt + one retry
        for span in faults + rewinds:
            assert span.parent_id == execute.span_id
        assert [f.attrs["attempt"] for f in faults] == [1, 2]
        assert runtime.obs.open_span_count == 0
        assert buf.tree_violations() == []
        assert consistency_check(runtime) == []


class TestPoisonedBatch:
    def test_partial_batch_counts_each_request_once(self):
        runtime = observed_runtime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("c0")
        batch = [
            b"set a 0 0 2\r\nxy\r\n",
            ATTACK_LONG_KEY,
            b"get a\r\n",
        ]
        responses = server.handle_batch("c0", batch)
        assert len(responses) == 3
        assert responses[1].startswith(b"SERVER_ERROR")

        obs = runtime.obs
        [batch_span] = obs.buffer.of_name("memcached.batch")
        assert batch_span.status == "partial"
        assert batch_span.attrs["size"] == 3
        # Exactly one request counter bump per pipelined request — the
        # fallback path must not route through the instrumented wrapper.
        assert obs.registry.counter_total("app_requests_total") == 3
        assert obs.registry.counter_total("app_requests_total", status="fault") == 1
        assert obs.registry.counter_total("app_batches_total") == 1
        # The domain executions of the fallback nest under the batch span.
        executes = obs.buffer.of_name("domain.execute")
        assert executes and all(
            e.parent_id == batch_span.span_id for e in executes
        )
        assert obs.open_span_count == 0
        assert obs.buffer.tree_violations() == []
        assert consistency_check(runtime) == []

    def test_batch_latency_share_sums_to_elapsed(self):
        runtime = observed_runtime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("c0")
        before = runtime.clock.now
        server.handle_batch("c0", [b"set k 0 0 1\r\nv\r\n", b"get k\r\n"])
        elapsed = runtime.clock.now - before
        hist = runtime.obs.registry.histogram(
            "app_request_latency_seconds", app="memcached"
        )
        assert hist.sum == pytest.approx(elapsed)


class TestWatchdogQuarantine:
    def test_quarantine_emits_event_and_refusals(self):
        runtime = observed_runtime()
        obs = runtime.obs
        watchdog = FaultWatchdog(
            runtime.clock,
            WatchdogConfig(threshold=2, window=60.0, quarantine_period=5.0),
            obs=obs,
        )
        server = MemcachedServer(
            runtime, isolation=IsolationMode.PER_CONNECTION, watchdog=watchdog
        )
        server.connect("mallory")
        server.handle("mallory", ATTACK_LONG_KEY)
        server.handle("mallory", ATTACK_LONG_KEY)  # trips the threshold
        refused = server.handle("mallory", b"get x\r\n")
        assert refused.startswith(b"SERVER_ERROR")

        [quarantine] = obs.buffer.of_name("watchdog.quarantine")
        assert quarantine.attrs["principal"] == "mallory"
        assert quarantine.attrs["duration"] == pytest.approx(5.0)
        assert obs.registry.counter_total("watchdog_quarantines_total") == 1
        assert obs.registry.counter_total("watchdog_faults_total") == 2
        assert obs.registry.gauge_value("watchdog_quarantined_principals") == 1
        assert obs.registry.counter_total(
            "app_requests_total", status="refused"
        ) == 1
        assert obs.open_span_count == 0
        assert obs.buffer.tree_violations() == []
        assert consistency_check(runtime) == []


class TestWorkerCrashRestart:
    def test_restart_event_and_wellformed_tree(self):
        obs = Observability()
        cluster = NginxCluster(workers=2, isolation=IsolationMode.NONE, obs=obs)
        cluster.connect("c0")
        response = cluster.handle("c0", NGINX_ATTACK)
        assert response.startswith(b"HTTP/1.1 502 ")

        [restart] = obs.buffer.of_name("worker.restart")
        assert restart.attrs["cause"] == "process-crash"
        assert restart.attrs["duration"] > 0.0
        [request_span] = obs.buffer.of_name("cluster.request")
        assert request_span.status == "worker-crash"
        assert restart.parent_id == request_span.span_id
        assert obs.registry.counter_total("cluster_worker_restarts_total") == 1
        assert obs.registry.counter_total(
            "cluster_requests_total", status="worker-crash"
        ) == 1
        assert obs.open_span_count == 0
        assert obs.buffer.tree_violations() == []
        # While the worker restarts, its clients are refused — also spanned.
        refused = cluster.handle("c0", b"GET / HTTP/1.1\r\nHost: h\r\n\r\n")
        assert refused.startswith(b"HTTP/1.1 503 ")
        assert obs.registry.counter_total(
            "cluster_requests_total", status="refused"
        ) == 1

    def test_uncontained_crash_closes_span_as_crash(self):
        runtime = observed_runtime()
        server = MemcachedServer(runtime, isolation=IsolationMode.NONE)
        server.connect("mallory")
        with pytest.raises(ProcessCrashed):
            server.handle("mallory", ATTACK_LONG_KEY)
        obs = runtime.obs
        [request_span] = obs.buffer.of_name("memcached.request")
        assert request_span.status == "crash"
        assert obs.registry.counter_total(
            "app_requests_total", status="crash"
        ) == 1
        assert obs.registry.counter_total("sdrad_crashes_total") == 1
        assert obs.open_span_count == 0
        assert obs.buffer.tree_violations() == []

    def test_uncontained_batch_crash_closes_span_as_crash(self):
        runtime = observed_runtime()
        server = MemcachedServer(runtime, isolation=IsolationMode.NONE)
        server.connect("mallory")
        with pytest.raises(ProcessCrashed):
            server.handle_batch("mallory", [b"get k\r\n", ATTACK_LONG_KEY])
        obs = runtime.obs
        [batch_span] = obs.buffer.of_name("memcached.batch")
        assert batch_span.status == "crash"
        assert obs.registry.counter_total("app_batches_total") == 1
        assert server.metrics.crashes == 1
        assert obs.open_span_count == 0
        assert obs.buffer.tree_violations() == []

    def test_uncontained_batch_crash_counts_one_crash_request(self):
        """The crashed request is counted as ``handle`` counts it; the
        batch's earlier requests ran, but their responses died with the
        process, so they are counted by the server only."""
        runtime = observed_runtime()
        server = MemcachedServer(runtime, isolation=IsolationMode.NONE)
        server.connect("mallory")
        with pytest.raises(ProcessCrashed):
            server.handle_batch("mallory", [b"get k\r\n", ATTACK_LONG_KEY])
        registry = runtime.obs.registry
        assert registry.counter_total(
            "app_requests_total", status="crash"
        ) == server.metrics.crashes == 1
        assert registry.counter_total("app_requests_total") == 1
        assert registry.histogram(
            "app_request_latency_seconds", app="memcached"
        ).count == 1
        assert server.metrics.requests == 2


class TestCallerErrors:
    """A caller's mistake is not a crash: the span ends as ``error``, as
    ``Observability.span`` ends it, and no request or batch is counted."""

    def _server(self):
        runtime = observed_runtime()
        server = MemcachedServer(runtime, isolation=IsolationMode.PER_CONNECTION)
        server.connect("c0")
        return runtime.obs, server

    def _assert_nothing_counted(self, obs, server):
        assert obs.registry.counter_total("app_requests_total") == 0
        assert obs.registry.counter_total("app_batches_total") == 0
        assert obs.registry.histogram(
            "app_request_latency_seconds", app="memcached"
        ).count == 0
        assert (server.metrics.requests, server.metrics.crashes) == (0, 0)
        assert obs.open_span_count == 0
        assert obs.buffer.tree_violations() == []

    def test_unconnected_client_request_is_an_error(self):
        obs, server = self._server()
        with pytest.raises(SdradError, match="not connected"):
            server.handle("ghost", b"get k\r\n")
        [span] = obs.buffer.of_name("memcached.request")
        assert (span.status, dict(span.attrs)) == ("error", {"client": "ghost"})
        self._assert_nothing_counted(obs, server)

    def test_unconnected_client_batch_is_an_error(self):
        obs, server = self._server()
        with pytest.raises(SdradError, match="not connected"):
            server.handle_batch("ghost", [b"get k\r\n", b"get j\r\n"])
        [span] = obs.buffer.of_name("memcached.batch")
        assert (span.status, dict(span.attrs)) == (
            "error", {"client": "ghost", "size": 2}
        )
        self._assert_nothing_counted(obs, server)
