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
#: latency histogram moved. Every case's snapshot digest was re-recorded
#: when the snapshot lost ``reentry_invalidations`` and a domain started to
#: cache its entry on itself; no other snapshot value moved.
_SERVER_OUTPUTS = {
    ('memcached', 'per-connection', 'mpk', False): ('6646596b4c2f1c49', 0.0026115, 'a86ceab5be9adb5b', '7bc60010070c9deb'),
    ('memcached', 'per-connection', 'mpk', True): ('6646596b4c2f1c49', 0.0026115, 'a86ceab5be9adb5b', '284c42bee2b1bb7c', '478fed2a1d99fbc0', '463fe34282a8e723'),
    ('memcached', 'per-connection', 'cheri', False): ('6646596b4c2f1c49', 0.002601020000000003, 'a86ceab5be9adb5b', 'e11c389e3ac281e7'),
    ('memcached', 'per-connection', 'cheri', True): ('6646596b4c2f1c49', 0.002601020000000003, 'a86ceab5be9adb5b', 'b38c90c22e24397c', '6a8cc813f1b61890', 'c4f5060b8d23925a'),
    ('memcached', 'per-connection', 'sfi', False): ('6646596b4c2f1c49', 0.002591, 'a86ceab5be9adb5b', '549f1eeecacf61a6'),
    ('memcached', 'per-connection', 'sfi', True): ('6646596b4c2f1c49', 0.002591, 'a86ceab5be9adb5b', '391a08f2b4e10c1b', '721f3be13998d099', 'bfaecaee4e94c308'),
    ('memcached', 'per-request', 'mpk', False): ('6646596b4c2f1c49', 0.003016299999999998, 'a86ceab5be9adb5b', '149ce73a1a01b7ed'),
    ('memcached', 'per-request', 'mpk', True): ('6646596b4c2f1c49', 0.003016299999999998, 'a86ceab5be9adb5b', '36d3c875740db0db', '03f662db74d9d72e', '68cac3786a3d746c'),
    ('memcached', 'per-request', 'cheri', False): ('6646596b4c2f1c49', 0.0027746200000000037, 'a86ceab5be9adb5b', '6919c9520b65f1e2'),
    ('memcached', 'per-request', 'cheri', True): ('6646596b4c2f1c49', 0.0027746200000000037, 'a86ceab5be9adb5b', '1697b9c06785f2c4', 'cf12fdf73cc85102', '277188946a57dabb'),
    ('memcached', 'per-request', 'sfi', False): ('6646596b4c2f1c49', 0.002703784, 'a86ceab5be9adb5b', '365b4c8b31ab5246'),
    ('memcached', 'per-request', 'sfi', True): ('6646596b4c2f1c49', 0.002703784, 'a86ceab5be9adb5b', '938abe94b8e4f89b', '47c30584bf9f6acd', '7e896c44bffe469c'),
    ('memcached', 'none', 'mpk', False): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', 'e507686e2ee9ee90'),
    ('memcached', 'none', 'mpk', True): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', '8ee82d86ae8502a2', '528a61efef09bee7', '1b45c9ca9d2418ab'),
    ('memcached', 'none', 'cheri', False): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', '2b09cf59cabf10e6'),
    ('memcached', 'none', 'cheri', True): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', 'da1d34ab83696225', '528a61efef09bee7', '1b45c9ca9d2418ab'),
    ('memcached', 'none', 'sfi', False): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', '39c076c6e92a082c'),
    ('memcached', 'none', 'sfi', True): ('8aec2a46cdf57d6c', 0.002562000000000001, '122a5236a5e2371f', '5d9ad4943ab5ca42', '528a61efef09bee7', '1b45c9ca9d2418ab'),
    ('nginx', 'per-connection', 'mpk', False): ('33f9f10059ececc8', 0.0039078, 'e0afd85cc4e89839', 'f1e1919e05072ab0'),
    ('nginx', 'per-connection', 'mpk', True): ('33f9f10059ececc8', 0.0039078, 'e0afd85cc4e89839', 'c5f018243a33e188', '1450f95e2d0ca581', '2e45c4268b4f8653'),
    ('nginx', 'per-connection', 'cheri', False): ('33f9f10059ececc8', 0.0038978000000000033, 'e0afd85cc4e89839', '5df1b9730e763012'),
    ('nginx', 'per-connection', 'cheri', True): ('33f9f10059ececc8', 0.0038978000000000033, 'e0afd85cc4e89839', '33bf522ce27c5502', '61827fab0f36f761', '1921ec0909cc8929'),
    ('nginx', 'per-connection', 'sfi', False): ('33f9f10059ececc8', 0.0038896660000000013, 'e0afd85cc4e89839', 'ae2e7e25f69deef0'),
    ('nginx', 'per-connection', 'sfi', True): ('33f9f10059ececc8', 0.0038896660000000013, 'e0afd85cc4e89839', '20821ff9386c28fe', '7c56d4115c9e27eb', '3b890f678410e323'),
    ('nginx', 'per-request', 'mpk', False): ('33f9f10059ececc8', 0.0038324999999999982, 'e0afd85cc4e89839', '7b04a526cde59db6'),
    ('nginx', 'per-request', 'mpk', True): ('33f9f10059ececc8', 0.0038324999999999982, 'e0afd85cc4e89839', '1ff861ebf54946d5', '625370b0bfeb4d3c', '457b5397668f4119'),
    ('nginx', 'per-request', 'cheri', False): ('33f9f10059ececc8', 0.003691140000000003, 'e0afd85cc4e89839', '39ef66ef03e96ae2'),
    ('nginx', 'per-request', 'cheri', True): ('33f9f10059ececc8', 0.003691140000000003, 'e0afd85cc4e89839', '8602a1abeef1f622', '522c1117a62ea634', '6eb64e292c55cdc6'),
    ('nginx', 'per-request', 'sfi', False): ('33f9f10059ececc8', 0.0036497520000000018, 'e0afd85cc4e89839', 'f3304e1a5a4d6e46'),
    ('nginx', 'per-request', 'sfi', True): ('33f9f10059ececc8', 0.0036497520000000018, 'e0afd85cc4e89839', 'b8217a492ff0ade8', '2e290e2dd70d87eb', '65f39ba77d682301'),
    ('nginx', 'none', 'mpk', False): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', 'dada66257016618f'),
    ('nginx', 'none', 'mpk', True): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '0bfafbf28308fcbd', 'af10d9dd8be4179f', 'edf9183d8e7f1763'),
    ('nginx', 'none', 'cheri', False): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '017af51966a31551'),
    ('nginx', 'none', 'cheri', True): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '8803c396b5a1b2fa', 'af10d9dd8be4179f', 'edf9183d8e7f1763'),
    ('nginx', 'none', 'sfi', False): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', '1496749a4f783158'),
    ('nginx', 'none', 'sfi', True): ('6de54a5809e3beca', 0.0036007000000000014, '0e0d2f9e36de7c5d', 'e1bd95260cd3718b', 'af10d9dd8be4179f', 'edf9183d8e7f1763'),
}

#: Recorded before the two servers shared one serving core; the snapshot
#: digests re-recorded as for ``_SERVER_OUTPUTS``.
_CLUSTER_OUTPUTS = {
    ('per-connection', False): ('ea48d244e15e37d3', 0.0038042, '6039f1f0d629a2ee', '77f8d361772c6012'),
    ('per-connection', True): ('ea48d244e15e37d3', 0.0038042, '6039f1f0d629a2ee', '7e636d13cd3593d5', '8227f7bf4dd681e3', '89021b8a055b5a54'),
    ('per-request', False): ('ea48d244e15e37d3', 0.004069199999999997, '6039f1f0d629a2ee', '8c266b33afea8b7b'),
    ('per-request', True): ('ea48d244e15e37d3', 0.004069199999999997, '6039f1f0d629a2ee', 'b2ac643c2c7ff7a6', '6d9cef82ee84bb03', '4ad4d2253bca6a2d'),
    ('none', False): ('55d839cc2cf948fc', 0.0027503000000000007, 'ac53399291fe6871', 'b939a4557f895df4'),
    ('none', True): ('55d839cc2cf948fc', 0.0027503000000000007, 'ac53399291fe6871', '5dc39cdcb208b838', '0e09dd8eadef4d89', '699994dea7cec0a2'),
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
#: and its span ends as ``error``. Every case's snapshot digest was
#: re-recorded as for ``_SERVER_OUTPUTS``; in the per-connection cases the
#: re-entry hits/misses also went from 6/6 to 8/4, since a disconnect no
#: longer makes the live connections' domains derive their entry again.
_TLS_OUTPUTS = {
    ('per-connection', 'mpk', False): ('68fb933412dfedf7', 0.004050541999999999, 'a777fa87e213d0d3', '5d9760788b3e16b6', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-connection', 'mpk', True): ('68fb933412dfedf7', 0.004050541999999999, 'a777fa87e213d0d3', '416280c53f7d374d', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'bd29f6d61dd4bb08', 'eabd2bcf5864b851'),
    ('per-connection', 'cheri', False): ('68fb933412dfedf7', 0.004039322000000003, 'a777fa87e213d0d3', 'f07c85d750e315c8', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-connection', 'cheri', True): ('68fb933412dfedf7', 0.004039322000000003, 'a777fa87e213d0d3', 'ac7ff099bbfed76a', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], '4edf9da83ba484b2', '00d0557d9781b365'),
    ('per-connection', 'sfi', False): ('68fb933412dfedf7', 0.004033597999999999, 'a777fa87e213d0d3', 'cfe4966671185e78', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-connection', 'sfi', True): ('68fb933412dfedf7', 0.004033597999999999, 'a777fa87e213d0d3', '65aefccc9c3fb012', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], '3c2440fe295c2030', '9a8112f4d2f23478'),
    ('per-request', 'mpk', False): ('2924ef157c09e82e', 0.004123821999999998, 'a777fa87e213d0d3', '57ba893806c56554', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-request', 'mpk', True): ('2924ef157c09e82e', 0.004123821999999998, 'a777fa87e213d0d3', 'b55ed7e5e63dcddb', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'd33bfbb021ad9f8a', '60002a8b0d724850'),
    ('per-request', 'cheri', False): ('2924ef157c09e82e', 0.004069102000000004, 'a777fa87e213d0d3', 'ae38cca661607934', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-request', 'cheri', True): ('2924ef157c09e82e', 0.004069102000000004, 'a777fa87e213d0d3', 'ed4efda3c66bdee4', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'b3fa1dbd899e1094', '63d5c4094fb56f9e'),
    ('per-request', 'sfi', False): ('2924ef157c09e82e', 0.004053077999999998, 'a777fa87e213d0d3', 'f5dd3637358fc5e7', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []]),
    ('per-request', 'sfi', True): ('2924ef157c09e82e', 0.004053077999999998, 'a777fa87e213d0d3', 'db6ceb0aa1452855', [[], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], [], []], 'a442ba053de3a7b5', '3f7984a89ab337b0'),
    ('none', 'mpk', False): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '216f00b23bdfcacc', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []]),
    ('none', 'mpk', True): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '849d7139c9eaaa04', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []], '4f8fea3cdf5e0aae', 'e4b4d087bc3219c2'),
    ('none', 'cheri', False): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '9dbf5efde83bde06', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []]),
    ('none', 'cheri', True): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '47802056c86c3a2b', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []], '4f8fea3cdf5e0aae', 'e4b4d087bc3219c2'),
    ('none', 'sfi', False): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', 'd73cf73ed1838750', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []]),
    ('none', 'sfi', True): ('bc14b225f17bf87d', 0.00401315, '053716ac35ce39a9', '9ace77d98b8dcb4c', [[], [], [], [], [], [], [], [], [], ['alice', 'bob'], ['alice', 'bob'], [], [], [], [], [], [], [], [], [], ['alice', 'bob'], [], ['bob'], []], '4f8fea3cdf5e0aae', 'e4b4d087bc3219c2'),
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
