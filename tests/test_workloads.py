"""Tests for workload generation: keys, arrivals, clients, traces."""

from __future__ import annotations

import random

import pytest

from repro.sim.rng import RngFactory
from repro.workloads.clients import (
    HttpClient,
    MaliciousHttpClient,
    MaliciousMemcachedClient,
    MemcachedClient,
    build_population,
)
from repro.workloads.traces import generate_trace
from repro.workloads.zipf import Keyspace, KeyValueWorkload, ValueSizer


def make_workload(seed: int = 1, size: int = 100) -> KeyValueWorkload:
    rng = random.Random(seed)
    return KeyValueWorkload(Keyspace(size), 0.99, rng)


class TestKeyspace:
    def test_keys_are_deterministic(self):
        ks = Keyspace(10)
        assert ks.key(3) == ks.key(3)
        assert ks.key(0) != ks.key(1)

    def test_keys_are_protocol_safe(self):
        ks = Keyspace(1000)
        for key in (ks.key(0), ks.key(999)):
            assert b" " not in key and b"\r" not in key
            assert len(key) <= 250

    def test_rank_bounds(self):
        ks = Keyspace(5)
        with pytest.raises(ValueError):
            ks.key(5)
        with pytest.raises(ValueError):
            ks.key(-1)

    def test_all_keys(self):
        assert len(Keyspace(7).all_keys()) == 7


class TestValueSizer:
    def test_sizes_within_bounds(self):
        sizer = ValueSizer(random.Random(2), median=128, minimum=8, maximum=1024)
        for _ in range(1000):
            assert 8 <= sizer.sample() <= 1024

    def test_median_roughly_respected(self):
        sizer = ValueSizer(random.Random(3), median=100, sigma=0.5)
        samples = sorted(sizer.sample() for _ in range(4001))
        assert samples[2000] == pytest.approx(100, rel=0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ValueSizer(random.Random(0), median=0)
        with pytest.raises(ValueError):
            ValueSizer(random.Random(0), median=10, minimum=20, maximum=30)


class TestClients:
    def test_benign_memcached_requests_parse(self):
        client = MemcachedClient("c", make_workload(), random.Random(7))
        for _ in range(50):
            request = client.next_request()
            assert request.startswith((b"get ", b"set "))
            assert request.endswith(b"\r\n")
        assert not client.is_malicious()

    def test_set_fraction_respected(self):
        client = MemcachedClient(
            "c", make_workload(), random.Random(8), set_fraction=1.0
        )
        assert all(
            client.next_request().startswith(b"set ") for _ in range(20)
        )

    def test_malicious_memcached_mixes_attacks(self):
        client = MaliciousMemcachedClient(
            "m", make_workload(), random.Random(9), attack_fraction=1.0
        )
        requests = [client.next_request() for _ in range(50)]
        assert client.is_malicious()
        long_keys = [r for r in requests if r.startswith(b"get ") and len(r) > 260]
        lies = [r for r in requests if r.startswith(b"set pwn")]
        assert long_keys and lies

    def test_http_client_requests_are_wellformed(self):
        client = HttpClient("h", random.Random(10))
        request = client.next_request()
        assert request.startswith(b"GET ")
        assert request.endswith(b"\r\n\r\n")

    def test_malicious_http_attacks(self):
        client = MaliciousHttpClient("m", random.Random(11), attack_fraction=1.0)
        requests = [client.next_request() for _ in range(40)]
        assert any(len(r) > 1050 for r in requests)
        assert any(b"Content-Length:" in r for r in requests)

    def test_attack_fraction_validation(self):
        with pytest.raises(ValueError):
            MaliciousMemcachedClient(
                "m", make_workload(), random.Random(0), attack_fraction=0.0
            )


class TestPopulationAndTrace:
    def test_build_population_counts(self):
        factory = RngFactory(12)
        clients = build_population(
            3, 2, lambda cid, rng: make_workload(), factory
        )
        assert len(clients) == 5
        assert sum(1 for c in clients if c.is_malicious()) == 2

    def test_trace_determinism(self):
        def build():
            factory = RngFactory(13)
            clients = build_population(
                2, 1, lambda cid, rng: make_workload(), factory
            )
            return [
                (e.client_id, e.payload)
                for e in generate_trace(clients, 100, factory)
            ]

        assert build() == build()

    def test_trace_metadata(self):
        factory = RngFactory(14)
        clients = build_population(2, 1, lambda cid, rng: make_workload(), factory)
        trace = generate_trace(clients, 200, factory)
        assert len(trace) == 200
        assert set(trace.clients) <= {"benign-0", "benign-1", "mallory-0"}
        assert trace.malicious_count == len(trace.for_client("mallory-0"))

    def test_trace_validation(self):
        factory = RngFactory(15)
        with pytest.raises(ValueError):
            generate_trace([], 10, factory)
        clients = build_population(1, 0, lambda cid, rng: make_workload(), factory)
        with pytest.raises(ValueError):
            generate_trace(clients, -1, factory)

    def test_http_population(self):
        factory = RngFactory(16)
        clients = build_population(1, 1, None, factory, kind="http")
        assert clients[0].next_request().startswith(b"GET ")


class TestTracePersistence:
    def test_json_roundtrip(self):
        factory = RngFactory(21)
        clients = build_population(2, 1, lambda cid, rng: make_workload(), factory)
        trace = generate_trace(clients, 50, factory)
        restored = type(trace).from_json(trace.to_json())
        assert len(restored) == len(trace)
        for a, b in zip(trace, restored):
            assert (a.seq, a.client_id, a.payload, a.malicious) == (
                b.seq,
                b.client_id,
                b.payload,
                b.malicious,
            )

    def test_binary_payloads_survive(self):
        from repro.workloads.traces import TraceEntry, WorkloadTrace

        trace = WorkloadTrace(
            [TraceEntry(0, "c", bytes(range(256)), malicious=True)]
        )
        restored = WorkloadTrace.from_json(trace.to_json())
        assert restored[0].payload == bytes(range(256))
        assert restored[0].malicious

    def test_file_roundtrip(self, tmp_path):
        from repro.workloads.traces import TraceEntry, WorkloadTrace

        trace = WorkloadTrace([TraceEntry(0, "c", b"get k\r\n", False)])
        path = tmp_path / "trace.json"
        trace.save(str(path))
        assert len(WorkloadTrace.load(str(path))) == 1

    def test_invalid_document_rejected(self):
        from repro.workloads.traces import WorkloadTrace

        import pytest as _pytest

        with _pytest.raises(ValueError):
            WorkloadTrace.from_json("{not json")
