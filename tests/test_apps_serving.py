"""The Memcached, NGINX and TLS serving paths pinned against recorded outputs.

Each case serves one fixed script through a server (or an NGINX cluster)
in one isolation mode, on one backend, with observability off or on. The
Memcached/NGINX script mixes benign traffic, stack and heap exploits,
malformed lines, multi-key gets, and batches that pipeline, fall back and
are empty, and a watchdog trips, refuses, expires and trips again. The TLS
script runs handshakes, application data, honest heartbeats, an in-heap
and a domain-crossing Heartbleed over-read, garbage and out-of-order
records, and a disconnect and reconnect. The recorded digests cover every
response (crashes included), the virtual clock, the metrics dataclass,
``telemetry.snapshot``, the TLS secrets each response leaks and, with obs
on, the Prometheus text and the span JSONL. A refactor of the serving core
must leave all of them byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.apps.cluster import NginxCluster
from repro.apps.memcached_server import IsolationMode, MemcachedServer
from repro.apps.nginx_server import NginxServer
from repro.apps.openssl_service import TlsServer
from repro.apps.tls import (
    TlsRecord,
    make_appdata,
    make_client_hello,
    make_finished,
    make_heartbeat_request,
)
from repro.errors import SdradError
from repro.obs import Observability
from repro.obs.exporters import prometheus_text, spans_to_jsonl
from repro.sdrad.policy import ProcessCrashed
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import snapshot
from repro.sdrad.watchdog import FaultWatchdog, WatchdogConfig

MC_STACK = b"get " + b"K" * 270 + b"\r\n"
MC_HEAP = b"set pwn 0 0 4\r\n" + b"Z" * 400 + b"\r\n"
MC_BENIGN = [
    b"set foo 7 0 5\r\nhello\r\n",
    b"set bar 1 0 3\r\nabc\r\n",
    b"get foo\r\n",
    b"get foo bar nope\r\n",
    b"set n 0 0 1\r\n5\r\n",
    b"incr n 10\r\n",
    b"decr n 3\r\n",
    b"add foo 0 0 1\r\nx\r\n",
    b"replace bar 0 0 2\r\nyz\r\n",
    b"delete bar\r\n",
    b"delete bar\r\n",
    b"stats\r\n",
]
MC_MALFORMED = [b"bogus\r\n", b"no crlf", b"get\r\n", b"set k x 0 5\r\nhello\r\n"]

NGINX_STACK = b"GET /" + b"A" * 1050 + b" HTTP/1.1\r\nHost: x\r\n\r\n"
NGINX_HEAP = (
    b"POST /upload HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n" + b"B" * 300
)
NGINX_BENIGN = [
    b"GET / HTTP/1.1\r\nHost: repro.example\r\n\r\n",
    b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /static/app.js HTTP/1.1\r\nHost: x\r\nUser-Agent: c\r\n\r\n",
    b"POST /upload HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
    b"GET /missing HTTP/1.1\r\nHost: x\r\n\r\n",
]
NGINX_MALFORMED = [b"garbage\r\n\r\n", b"GET /\r\n\r\n", b"no terminator"]

#: app -> (benign, malformed, stack exploit, heap exploit)
TRAFFIC = {
    "memcached": (MC_BENIGN, MC_MALFORMED, MC_STACK, MC_HEAP),
    "nginx": (NGINX_BENIGN, NGINX_MALFORMED, NGINX_STACK, NGINX_HEAP),
}


def _script(app: str) -> list:
    """``(client, raw)`` for one request, ``(client, [raws])`` for a batch,
    or ``("wait", seconds)`` to let virtual time pass."""
    benign, malformed, stack, heap = TRAFFIC[app]
    steps = [("alice", raw) for raw in benign + malformed]
    steps += [
        ("alice", list(benign)),  # pipelines
        ("alice", []),  # empty
        ("mallory", stack),
        ("mallory", heap),
        ("bob", [benign[0], stack, benign[2], malformed[0]]),  # falls back
        ("mallory", stack),  # the third fault trips the watchdog
        ("mallory", benign[2]),  # refused
        ("mallory", [benign[0], benign[2]]),  # refused per request
        ("bob", list(benign)),  # pipelines again after a fallback
        ("wait", 0.002),  # the quarantine expires
        ("mallory", benign[2]),
        ("mallory", [heap, benign[2]]),
        ("mallory", heap),
        ("mallory", stack),  # trips again: an escalated quarantine
        ("mallory", stack),  # refused
        ("alice", benign[3]),
    ]
    return steps


def _digest(*parts) -> str:
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _serve(step_handle, step_batch, clock, app: str) -> list:
    responses = []
    for client, payload in _script(app):
        if client == "wait":
            clock.advance(payload)
            continue
        try:
            if isinstance(payload, list):
                responses.extend(step_batch(client, payload))
            else:
                responses.append(step_handle(client, payload))
        except ProcessCrashed as exc:
            responses.append(b"crash: " + str(exc).encode())
    return responses


def _server_outputs(app: str, isolation: str, backend: str, obs_on: bool):
    obs = Observability() if obs_on else None
    runtime = SdradRuntime(backend=backend, obs=obs)
    watchdog = FaultWatchdog(
        runtime.clock,
        WatchdogConfig(threshold=3, window=1.0, quarantine_period=0.001),
        obs=obs,
    )
    cls = MemcachedServer if app == "memcached" else NginxServer
    server = cls(runtime, isolation=IsolationMode(isolation), watchdog=watchdog)
    for client in ("alice", "bob", "mallory"):
        server.connect(client)
    responses = _serve(server.handle, server.handle_batch, runtime.clock, app)
    state = json.dumps(snapshot(runtime), sort_keys=True, default=repr)
    server.disconnect("bob")
    outputs = (
        _digest(*responses),
        runtime.clock.now,
        _digest(sorted(asdict(server.metrics).items())),
        _digest(state, server.connected_clients, snapshot(runtime)["memory"]),
    )
    if obs is None:
        return outputs
    return outputs + (
        _digest(prometheus_text(obs.registry)),
        _digest(spans_to_jsonl(obs.buffer)),
    )


def _cluster_outputs(isolation: str, obs_on: bool):
    obs = Observability() if obs_on else None
    cluster = NginxCluster(workers=2, isolation=IsolationMode(isolation), obs=obs)
    for client in ("alice", "bob", "mallory"):
        cluster.connect(client)

    def batch(client, raws):
        return [cluster.handle(client, raw) for raw in raws]

    responses = _serve(cluster.handle, batch, cluster.clock, "nginx")
    workers = [
        (sorted(asdict(w.server.metrics).items()), w.restarts, w.outages)
        for w in cluster.workers
    ]
    outputs = (
        _digest(*responses),
        cluster.clock.now,
        _digest(sorted(asdict(cluster.metrics).items()), workers),
        _digest(
            cluster.total_rewinds(),
            [json.dumps(snapshot(w.runtime), sort_keys=True, default=repr)
             for w in cluster.workers],
        ),
    )
    if obs is None:
        return outputs
    return outputs + (
        _digest(prometheus_text(obs.registry)),
        _digest(spans_to_jsonl(obs.buffer)),
    )


#: Recorded before the two servers shared one serving core. The snapshot
#: digest (element 3) of the per-request cases was re-recorded when
#: per-request domains started to retire and hand their mapped regions and
#: key to the next init: only its TLB hit/miss/flush counts moved. The
#: snapshot and Prometheus digests (elements 3 and 4) of the ``none``/obs
#: cases were re-recorded when a crashed batch started to count its crashed
#: request: only ``app_requests_total{status="crash"}`` and the request
#: latency histogram moved.
_SERVER_OUTPUTS = {
    ('memcached', 'per-connection', 'mpk', False): ('6646596b4c2f1c49', 0.0026115, 'a86ceab5be9adb5b', '43ddc95928d280d9'),
    ('memcached', 'per-connection', 'mpk', True): ('6646596b4c2f1c49', 0.0026115, 'a86ceab5be9adb5b', '0b30cea99431617a', '478fed2a1d99fbc0', '463fe34282a8e723'),
    ('memcached', 'per-connection', 'cheri', False): ('6646596b4c2f1c49', 0.002601020000000003, 'a86ceab5be9adb5b', '2677faf0b04beb5f'),
    ('memcached', 'per-connection', 'cheri', True): ('6646596b4c2f1c49', 0.002601020000000003, 'a86ceab5be9adb5b', '947e2c553a142884', '6a8cc813f1b61890', 'c4f5060b8d23925a'),
    ('memcached', 'per-connection', 'sfi', False): ('6646596b4c2f1c49', 0.002591, 'a86ceab5be9adb5b', '8b7b3a2a1e6c4568'),
    ('memcached', 'per-connection', 'sfi', True): ('6646596b4c2f1c49', 0.002591, 'a86ceab5be9adb5b', 'ea6d25cdf006cbb7', '721f3be13998d099', 'bfaecaee4e94c308'),
    ('memcached', 'per-request', 'mpk', False): ('6646596b4c2f1c49', 0.003016299999999998, 'a86ceab5be9adb5b', '14de8b949af2e071'),
    ('memcached', 'per-request', 'mpk', True): ('6646596b4c2f1c49', 0.003016299999999998, 'a86ceab5be9adb5b', 'dd4c8e95f2dc7e8b', '03f662db74d9d72e', '68cac3786a3d746c'),
    ('memcached', 'per-request', 'cheri', False): ('6646596b4c2f1c49', 0.0027746200000000037, 'a86ceab5be9adb5b', 'c2f9f1d390bf8ba6'),
    ('memcached', 'per-request', 'cheri', True): ('6646596b4c2f1c49', 0.0027746200000000037, 'a86ceab5be9adb5b', 'c1648d530f08954e', 'cf12fdf73cc85102', '277188946a57dabb'),
    ('memcached', 'per-request', 'sfi', False): ('6646596b4c2f1c49', 0.002703784, 'a86ceab5be9adb5b', 'f1cf0a71db932cd9'),
    ('memcached', 'per-request', 'sfi', True): ('6646596b4c2f1c49', 0.002703784, 'a86ceab5be9adb5b', '12b846bb34560b7a', '47c30584bf9f6acd', '7e896c44bffe469c'),
    ('memcached', 'none', 'mpk', False): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', '0f412414039c3e48'),
    ('memcached', 'none', 'mpk', True): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', '1c80e08d7220ceb9', '528a61efef09bee7', '1b45c9ca9d2418ab'),
    ('memcached', 'none', 'cheri', False): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', 'ea13814db42f18ca'),
    ('memcached', 'none', 'cheri', True): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', 'f445a6212b16f896', '528a61efef09bee7', '1b45c9ca9d2418ab'),
    ('memcached', 'none', 'sfi', False): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', 'df799b633d052c32'),
    ('memcached', 'none', 'sfi', True): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', '67045793343c5b4b', '528a61efef09bee7', '1b45c9ca9d2418ab'),
    ('nginx', 'per-connection', 'mpk', False): ('33f9f10059ececc8', 0.0039078, 'e0afd85cc4e89839', 'f9aae2511d8bcc51'),
    ('nginx', 'per-connection', 'mpk', True): ('33f9f10059ececc8', 0.0039078, 'e0afd85cc4e89839', '8b7de04420a67a19', '1450f95e2d0ca581', '2e45c4268b4f8653'),
    ('nginx', 'per-connection', 'cheri', False): ('33f9f10059ececc8', 0.0038978000000000033, 'e0afd85cc4e89839', 'ce9753eb5e4a7ab3'),
    ('nginx', 'per-connection', 'cheri', True): ('33f9f10059ececc8', 0.0038978000000000033, 'e0afd85cc4e89839', '6bde4b2ece1e4792', '61827fab0f36f761', '1921ec0909cc8929'),
    ('nginx', 'per-connection', 'sfi', False): ('33f9f10059ececc8', 0.0038896660000000013, 'e0afd85cc4e89839', '62e14b8ef852402e'),
    ('nginx', 'per-connection', 'sfi', True): ('33f9f10059ececc8', 0.0038896660000000013, 'e0afd85cc4e89839', '179f78812301e4a2', '7c56d4115c9e27eb', '3b890f678410e323'),
    ('nginx', 'per-request', 'mpk', False): ('33f9f10059ececc8', 0.0038324999999999982, 'e0afd85cc4e89839', '6a32f118db254c11'),
    ('nginx', 'per-request', 'mpk', True): ('33f9f10059ececc8', 0.0038324999999999982, 'e0afd85cc4e89839', '1a095dbc0e5d27cd', '625370b0bfeb4d3c', '457b5397668f4119'),
    ('nginx', 'per-request', 'cheri', False): ('33f9f10059ececc8', 0.003691140000000003, 'e0afd85cc4e89839', '4a7784729159be3d'),
    ('nginx', 'per-request', 'cheri', True): ('33f9f10059ececc8', 0.003691140000000003, 'e0afd85cc4e89839', '2bb8ff145e89863e', '522c1117a62ea634', '6eb64e292c55cdc6'),
    ('nginx', 'per-request', 'sfi', False): ('33f9f10059ececc8', 0.0036497520000000018, 'e0afd85cc4e89839', 'eab004560b581922'),
    ('nginx', 'per-request', 'sfi', True): ('33f9f10059ececc8', 0.0036497520000000018, 'e0afd85cc4e89839', '451d1cc9b5057bfb', '2e290e2dd70d87eb', '65f39ba77d682301'),
    ('nginx', 'none', 'mpk', False): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '5306e151ff94c40e'),
    ('nginx', 'none', 'mpk', True): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', 'd4621650342dd450', 'af10d9dd8be4179f', 'edf9183d8e7f1763'),
    ('nginx', 'none', 'cheri', False): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '4a2fe00586921e48'),
    ('nginx', 'none', 'cheri', True): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '238a5172f967eaab', 'af10d9dd8be4179f', 'edf9183d8e7f1763'),
    ('nginx', 'none', 'sfi', False): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', 'b2a127cd5181f17a'),
    ('nginx', 'none', 'sfi', True): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '3ed1a1180de21afc', 'af10d9dd8be4179f', 'edf9183d8e7f1763'),
}

#: Recorded before the two servers shared one serving core; the per-request
#: snapshot digests re-recorded as for ``_SERVER_OUTPUTS``.
_CLUSTER_OUTPUTS = {
    ('per-connection', False): ('ea48d244e15e37d3', 0.0038042, '6039f1f0d629a2ee', '099d6ac3c7e27f84'),
    ('per-connection', True): ('ea48d244e15e37d3', 0.0038042, '6039f1f0d629a2ee', '8cf4857033f857a6', '8227f7bf4dd681e3', '89021b8a055b5a54'),
    ('per-request', False): ('ea48d244e15e37d3', 0.004069199999999997, '6039f1f0d629a2ee', '6fd5a89ad4ed0483'),
    ('per-request', True): ('ea48d244e15e37d3', 0.004069199999999997, '6039f1f0d629a2ee', '65c897e83a3589bd', '6d9cef82ee84bb03', '4ad4d2253bca6a2d'),
    ('none', False): ('55d839cc2cf948fc', 0.0027503000000000007, 'ac53399291fe6871', 'f7e23b13365d5d36'),
    ('none', True): ('55d839cc2cf948fc', 0.0027503000000000007, 'ac53399291fe6871', '84613052e22710bc', '0e09dd8eadef4d89', '699994dea7cec0a2'),
}

_SERVER_CASES = [
    (app, isolation.value, backend, obs_on)
    for app in ("memcached", "nginx")
    for isolation in IsolationMode
    for backend in ("mpk", "cheri", "sfi")
    for obs_on in (False, True)
]


@pytest.mark.parametrize(
    "case", _SERVER_CASES,
    ids=lambda c: f"{c[0]}/{c[1]}/{c[2]}/{'obs' if c[3] else 'plain'}",
)
def test_servers_pinned(case):
    assert _server_outputs(*case) == _SERVER_OUTPUTS[case]


@pytest.mark.parametrize(
    "case",
    [(isolation.value, obs_on) for isolation in IsolationMode for obs_on in (False, True)],
    ids=lambda c: f"{c[0]}/{'obs' if c[1] else 'plain'}",
)
def test_nginx_cluster_pinned(case):
    assert _cluster_outputs(*case) == _CLUSTER_OUTPUTS[case]


#: ``(client, record)`` to serve, or ``("connect"|"disconnect", client)``.
TLS_SCRIPT = [
    ("alice", make_appdata(b"too early")),  # before the handshake
    ("alice", b"\x00\x01"),  # garbage
    ("alice", make_client_hello()),
    ("alice", make_finished()),
    ("bob", make_client_hello(b"\x07" * 32)),
    ("alice", make_appdata(b"hello world " * 20)),
    ("alice", make_heartbeat_request(b"ping")),
    ("bob", make_appdata(b"b" * 3000)),
    ("mallory", make_client_hello()),
    ("mallory", make_heartbeat_request(b"x", declared=4000)),  # in-heap
    ("mallory", make_heartbeat_request(b"x", declared=60000)),  # contained
    ("mallory", make_appdata(b"after the rewind")),
    ("mallory", make_heartbeat_request(b"H" * 40000)),  # heap exhausted
    ("bob", make_heartbeat_request(b"pong" * 8)),
    ("bob", TlsRecord(22, 0x0303, b"").encode()),  # empty handshake
    ("bob", TlsRecord(22, 0x0303, b"\x63").encode()),  # unknown handshake
    ("bob", TlsRecord(25, 0x0303, b"?").encode()),  # unknown content type
    ("eve", make_client_hello()),  # never connected
    ("disconnect", "mallory"),
    ("connect", "mallory"),
    ("mallory", make_heartbeat_request(b"again")),  # before the handshake
    ("mallory", make_client_hello()),
    ("mallory", make_heartbeat_request(b"x", declared=4000)),
    ("alice", make_appdata(b"")),
    ("alice", make_heartbeat_request(b"x", declared=60000)),
    ("bob", make_appdata(b"still serving")),
]


def _tls_outputs(isolation: str, backend: str, obs_on: bool):
    obs = Observability() if obs_on else None
    # A root heap smaller than one heartbeat buffer: the unisolated build
    # crashes where a domain rewinds.
    runtime = SdradRuntime(backend=backend, obs=obs, root_heap_size=32 * 1024)
    server = TlsServer(
        runtime,
        isolation=IsolationMode(isolation),
        domain_heap_size=16 * 1024,
        domain_stack_size=16 * 1024,
    )
    for client in ("alice", "bob", "mallory"):
        server.connect(client)
    responses = []
    leaks = []
    for client, payload in TLS_SCRIPT:
        if client == "connect":
            server.connect(payload)
            continue
        if client == "disconnect":
            server.disconnect(payload)
            continue
        try:
            response = server.handle_record(client, payload)
        except (ProcessCrashed, SdradError) as exc:
            response = b"raised: " + str(exc).encode()
        responses.append(response)
        leaks.append(server.leaked_secrets(response, exclude=client))
    state = json.dumps(snapshot(runtime), sort_keys=True, default=repr)
    outputs = (
        _digest(*responses),
        runtime.clock.now,
        _digest(sorted(asdict(server.metrics).items())),
        _digest(state, snapshot(runtime)["memory"]),
        leaks,
    )
    if obs is None:
        return outputs
    return outputs + (
        _digest(prometheus_text(obs.registry)),
        _digest(spans_to_jsonl(obs.buffer)),
    )


#: Recorded before TLS was served through the shared serving core; the
#: per-request snapshot digests re-recorded as for ``_SERVER_OUTPUTS``.
#: The NONE cases' response and snapshot digests were re-recorded when the
#: server started to free a session's root-heap secret on a repeated
#: handshake and on disconnect: mallory's reconnected handshake reuses the
#: freed block, so the two later over-reads return other stale bytes (the
#: same clients' secrets leak), and one fewer root block stays live.
#: The obs cases' snapshot, metrics and span digests were re-recorded when
#: a caller error stopped counting as a crash: the never-connected
#: client's record no longer adds a ``crash`` request and a latency sample,
#: and its span ends as ``error``.
_TLS_OUTPUTS = {
    ('per-connection', 'mpk', False): ('68fb933412dfedf7', 0.004050541999999999, 'a777fa87e213d0d3', '91977434be4a1677', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-connection', 'mpk', True): ('68fb933412dfedf7', 0.004050541999999999, 'a777fa87e213d0d3', '1fd0e2f90c30ec38', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'bd29f6d61dd4bb08', 'eabd2bcf5864b851'),
    ('per-connection', 'cheri', False): ('68fb933412dfedf7', 0.004039322000000003, 'a777fa87e213d0d3', '3aab7878036d07e8', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-connection', 'cheri', True): ('68fb933412dfedf7', 0.004039322000000003, 'a777fa87e213d0d3', '46422f151dd58ec9', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], '4edf9da83ba484b2', '00d0557d9781b365'),
    ('per-connection', 'sfi', False): ('68fb933412dfedf7', 0.004033597999999999, 'a777fa87e213d0d3', 'e4378f4e27764241', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-connection', 'sfi', True): ('68fb933412dfedf7', 0.004033597999999999, 'a777fa87e213d0d3', '5d7831c91558c5cf', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], '3c2440fe295c2030', '9a8112f4d2f23478'),
    ('per-request', 'mpk', False): ('2924ef157c09e82e', 0.004123821999999998, 'a777fa87e213d0d3', 'e0265c9cc4de9f25', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-request', 'mpk', True): ('2924ef157c09e82e', 0.004123821999999998, 'a777fa87e213d0d3', 'f953f28b70b10740', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'd33bfbb021ad9f8a', '60002a8b0d724850'),
    ('per-request', 'cheri', False): ('2924ef157c09e82e', 0.004069102000000004, 'a777fa87e213d0d3', '49503b68b21c315b', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-request', 'cheri', True): ('2924ef157c09e82e', 0.004069102000000004, 'a777fa87e213d0d3', '2686607301c8b772', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'b3fa1dbd899e1094', '63d5c4094fb56f9e'),
    ('per-request', 'sfi', False): ('2924ef157c09e82e', 0.004053077999999998, 'a777fa87e213d0d3', '18385a3e3fb6c8f4', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-request', 'sfi', True): ('2924ef157c09e82e', 0.004053077999999998, 'a777fa87e213d0d3', '275b67a868f65987', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'a442ba053de3a7b5', '3f7984a89ab337b0'),
    ('none', 'mpk', False): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', 'e06a4ec87d047283', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []]),
    ('none', 'mpk', True): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '4b3983d4e23aa49f', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []], '4f8fea3cdf5e0aae', 'e4b4d087bc3219c2'),
    ('none', 'cheri', False): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '98858fcbb1382876', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []]),
    ('none', 'cheri', True): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '0dbdf86a1fb6778c', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []], '4f8fea3cdf5e0aae', 'e4b4d087bc3219c2'),
    ('none', 'sfi', False): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '07b6ef343cef82e8', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []]),
    ('none', 'sfi', True): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '071821956ce88595', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []], '4f8fea3cdf5e0aae', 'e4b4d087bc3219c2'),
}

_TLS_CASES = [
    (isolation.value, backend, obs_on)
    for isolation in IsolationMode
    for backend in ("mpk", "cheri", "sfi")
    for obs_on in (False, True)
]


@pytest.mark.parametrize(
    "case", _TLS_CASES,
    ids=lambda c: f"{c[0]}/{c[1]}/{'obs' if c[2] else 'plain'}",
)
def test_tls_pinned(case):
    assert _tls_outputs(*case) == _TLS_OUTPUTS[case]
