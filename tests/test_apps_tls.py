"""Tests for the TLS record layer and the Heartbleed reproduction."""

from __future__ import annotations

import pytest

from repro.apps.memcached_server import IsolationMode
from repro.apps.openssl_service import TlsServer
from repro.apps.tls import (
    ContentType,
    TlsRecord,
    decode_record,
    make_appdata,
    make_client_hello,
    make_finished,
    make_heartbeat_request,
)
from repro.errors import SdradError
from repro.sdrad.policy import ProcessCrashed
from repro.sdrad.runtime import SdradRuntime


class TestRecordLayer:
    def test_encode_decode_roundtrip(self):
        record = TlsRecord(ContentType.APPLICATION_DATA, 0x0303, b"payload")
        decoded = decode_record(record.encode())
        assert decoded == record

    def test_truncated_record_rejected(self):
        raw = TlsRecord(23, 0x0303, b"payload").encode()
        assert decode_record(raw[:-2]) is None
        assert decode_record(b"\x17") is None

    def test_record_length_is_honest_at_this_layer(self):
        # record length field larger than the wire bytes -> rejected here
        raw = b"\x17\x03\x03\x00\x10short"
        assert decode_record(raw) is None

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(ValueError):
            TlsRecord(23, 0x0303, b"x" * 70000).encode()

    def test_builders_produce_decodable_records(self):
        for raw in (
            make_client_hello(),
            make_finished(),
            make_appdata(b"data"),
            make_heartbeat_request(b"ping"),
        ):
            assert decode_record(raw) is not None


@pytest.fixture
def isolated() -> TlsServer:
    runtime = SdradRuntime()
    return TlsServer(runtime, isolation=IsolationMode.PER_CONNECTION)


@pytest.fixture
def unisolated() -> TlsServer:
    runtime = SdradRuntime()
    return TlsServer(runtime, isolation=IsolationMode.NONE)


def establish(server: TlsServer, client: str) -> None:
    server.connect(client)
    response = server.handle_record(client, make_client_hello())
    assert decode_record(response).content_type == ContentType.HANDSHAKE


class TestHandshake:
    def test_hello_establishes_session(self, isolated: TlsServer):
        establish(isolated, "c")
        assert len(isolated.secret("c")) == 48

    def test_handshake_charges_crypto_cost(self, isolated: TlsServer):
        runtime = isolated.runtime
        isolated.connect("c")
        before = runtime.clock.now
        isolated.handle_record("c", make_client_hello())
        assert runtime.clock.now - before >= runtime.cost.tls_handshake

    def test_records_before_handshake_get_alert(self, isolated: TlsServer):
        isolated.connect("c")
        response = isolated.handle_record("c", make_appdata(b"x"))
        assert decode_record(response).content_type == 21  # alert

    def test_appdata_echo_is_masked(self, isolated: TlsServer):
        establish(isolated, "c")
        response = isolated.handle_record("c", make_appdata(b"hello"))
        payload = decode_record(response).payload
        assert payload != b"hello"  # XORed with the session secret
        assert len(payload) == 5

    def test_garbage_record_gets_alert(self, isolated: TlsServer):
        isolated.connect("c")
        response = isolated.handle_record("c", b"\x00\x01")
        assert decode_record(response).content_type == 21

    def test_session_secrets_differ(self, isolated: TlsServer):
        establish(isolated, "a")
        establish(isolated, "b")
        assert isolated.secret("a") != isolated.secret("b")


class TestHeartbeat:
    def test_honest_heartbeat_echoes_payload(self, isolated: TlsServer):
        establish(isolated, "c")
        response = isolated.handle_record("c", make_heartbeat_request(b"ping"))
        payload = decode_record(response).payload
        assert payload[0] == 2  # response type
        assert b"ping" in payload

    def test_heartbleed_unisolated_leaks_other_sessions(self, unisolated: TlsServer):
        establish(unisolated, "victim")
        establish(unisolated, "attacker")
        response = unisolated.handle_record(
            "attacker", make_heartbeat_request(b"x", declared=4000)
        )
        assert unisolated.leaked_secrets(response, exclude="attacker") == ["victim"]

    def test_heartbleed_isolated_never_leaks_others(self, isolated: TlsServer):
        establish(isolated, "victim")
        establish(isolated, "attacker")
        for declared in (256, 2000, 16000):
            response = isolated.handle_record(
                "attacker", make_heartbeat_request(b"x", declared=declared)
            )
            assert isolated.leaked_secrets(response, exclude="attacker") == []

    def test_boundary_crossing_overread_rewound(self):
        runtime = SdradRuntime()
        server = TlsServer(
            runtime,
            isolation=IsolationMode.PER_CONNECTION,
            domain_heap_size=16 * 1024,
            domain_stack_size=16 * 1024,
        )
        establish(server, "attacker")
        response = server.handle_record(
            "attacker", make_heartbeat_request(b"x", declared=60000)
        )
        assert decode_record(response).content_type == 21  # alert, not leak
        assert server.metrics.rewinds == 1

    def test_session_survives_rewound_heartbeat(self):
        runtime = SdradRuntime()
        server = TlsServer(
            runtime,
            isolation=IsolationMode.PER_CONNECTION,
            domain_heap_size=16 * 1024,
            domain_stack_size=16 * 1024,
        )
        establish(server, "c")
        server.handle_record("c", make_heartbeat_request(b"x", declared=60000))
        # the session secret was re-staged; appdata still works
        response = server.handle_record("c", make_appdata(b"after"))
        assert decode_record(response).content_type == ContentType.APPLICATION_DATA

    def test_victim_unaffected_by_attack(self, isolated: TlsServer):
        establish(isolated, "victim")
        establish(isolated, "attacker")
        isolated.handle_record("attacker", make_heartbeat_request(b"x", declared=16000))
        response = isolated.handle_record("victim", make_appdata(b"fine"))
        assert decode_record(response).content_type == ContentType.APPLICATION_DATA

    def test_heartbeat_metrics(self, isolated: TlsServer):
        establish(isolated, "c")
        isolated.handle_record("c", make_heartbeat_request(b"a"))
        isolated.handle_record("c", make_heartbeat_request(b"b"))
        assert isolated.metrics.heartbeats == 2

    def test_disconnect_cleans_up(self, isolated: TlsServer):
        establish(isolated, "c")
        baseline = len(isolated.runtime.domains())
        isolated.disconnect("c")
        assert len(isolated.runtime.domains()) == baseline - 1


class TestSharedServingCore:
    def test_secret_exists_from_the_handshake_on(self, isolated: TlsServer):
        isolated.connect("c")
        assert isolated.secret("c") is None
        isolated.handle_record("c", make_client_hello())
        assert isolated.secret("c") is not None
        isolated.disconnect("c")
        with pytest.raises(SdradError):
            isolated.secret("c")

    @pytest.mark.parametrize("isolation", list(IsolationMode))
    def test_batch_is_the_per_record_loop(self, isolation: IsolationMode):
        records = [
            make_client_hello(),
            make_heartbeat_request(b"ping"),
            make_heartbeat_request(b"x", declared=60000),
            make_appdata(b"after"),
        ]
        outputs = []
        for batched in (False, True):
            runtime = SdradRuntime()
            server = TlsServer(
                runtime,
                isolation=isolation,
                domain_heap_size=16 * 1024,
                domain_stack_size=16 * 1024,
            )
            server.connect("c")
            if batched:
                responses = server.handle_batch("c", records)
            else:
                responses = [server.handle_record("c", raw) for raw in records]
            outputs.append((responses, server.metrics, runtime.clock.now))
        assert outputs[0] == outputs[1]

    def test_unisolated_appdata_crash_is_counted(self):
        runtime = SdradRuntime(root_heap_size=16 * 1024)
        server = TlsServer(runtime, isolation=IsolationMode.NONE)
        establish(server, "c")
        with pytest.raises(ProcessCrashed):
            server.handle_record("c", make_appdata(b"x" * 30000))
        assert server.metrics.crashes == 1
        assert server.metrics.per_client_faults == {"c": 1}


class TestSecretOwnership:
    """Each session's secret has one resident copy, and the server frees
    it: a repeated handshake or a reconnect must not leak heap."""

    def test_repeated_hellos_do_not_exhaust_a_connection_domain(self):
        runtime = SdradRuntime()
        server = TlsServer(
            runtime,
            isolation=IsolationMode.PER_CONNECTION,
            domain_heap_size=16 * 1024,
            domain_stack_size=16 * 1024,
        )
        server.connect("c")
        for _ in range(300):
            response = server.handle_record("c", make_client_hello())
            assert decode_record(response).content_type == ContentType.HANDSHAKE
        heap = runtime.domain(server._connections["c"]).heap
        assert heap.stats().live_blocks == 1
        # The live copy is the current secret, and a rewind re-stages it
        # without freeing the block the discard already reclaimed.
        server.handle_record("c", make_heartbeat_request(b"x", declared=60000))
        server.handle_record("c", make_client_hello())
        assert heap.stats().live_blocks == 1
        response = server.handle_record("c", make_appdata(b"after"))
        assert decode_record(response).content_type == ContentType.APPLICATION_DATA

    def test_reconnecting_unisolated_clients_do_not_exhaust_the_root_heap(self):
        runtime = SdradRuntime(root_heap_size=64 * 1024)
        server = TlsServer(runtime, isolation=IsolationMode.NONE)
        live = runtime.root.heap.stats().live_blocks
        for _ in range(1000):
            server.connect("c")
            server.handle_record("c", make_client_hello())
            server.handle_record("c", make_client_hello())
            server.disconnect("c")
        assert runtime.root.heap.stats().live_blocks == live
