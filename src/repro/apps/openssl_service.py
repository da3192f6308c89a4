"""A TLS termination service (the OpenSSL use case) over SDRaD domains.

Each client session holds a 48-byte *session secret* (the TLS master-secret
analogue). Where that secret physically lives is the whole experiment:

* ``PER_CONNECTION`` isolation — the secret is copied into the client's own
  domain heap; the (vulnerable) record processing for that client runs in
  the same domain. A Heartbleed over-read can leak at most the client's
  *own* session state, and past the domain boundary it trips MPK and the
  domain is rewound.
* ``PER_REQUEST`` — nothing is resident: the secret is staged into each
  request's fresh domain.
* ``NONE`` — all sessions' secrets live side by side in root memory, the
  responder runs unisolated, and one malicious heartbeat exfiltrates other
  clients' secrets (the 2014 disaster, reproduced).

The serving half — connections, isolation modes, rewind and crash
accounting, the obs wrappers — is :class:`~repro.apps.serving.
DomainServer`, shared with Memcached and NGINX; this module adds record
decoding, the handshake, placing the secret, and the alerts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SdradError
from ..sdrad.runtime import SdradRuntime
from .serving import DomainServer, IsolationMode
from .tls import (
    ContentType,
    HandshakeType,
    TlsRecord,
    VERSION_TLS12,
    decode_record,
    mask_record_in_domain,
    process_heartbeat_in_domain,
)

SECRET_LEN = 48


def _alert(code: int) -> bytes:
    return TlsRecord(21, VERSION_TLS12, bytes([2, code])).encode()


@dataclass
class TlsMetrics:
    handshakes: int = 0
    heartbeats: int = 0
    appdata_records: int = 0
    rewinds: int = 0
    crashes: int = 0
    alerts: int = 0
    per_client_faults: dict[str, int] = field(default_factory=dict)


class TlsServer(DomainServer):
    """Record dispatcher for the toy TLS stack over the shared serving core."""

    app = "tls"
    request_name = "record"
    #: access_denied. Never sent: the TLS server takes no watchdog.
    REFUSED = _alert(49)
    #: internal_error, which only a rewind returns; the session survives.
    DISCARDED = _alert(80)
    # The core's request entry point, under TLS's name for it.
    handle_record = DomainServer.handle

    def __init__(
        self,
        runtime: SdradRuntime,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        domain_heap_size: int = 128 * 1024,
        domain_stack_size: int = 64 * 1024,
    ) -> None:
        self.domain_stack_size = domain_stack_size
        self.metrics = TlsMetrics()
        super().__init__(runtime, isolation, domain_heap_size)
        #: client id -> session secret, from the handshake on.
        self._secrets: dict[str, bytes] = {}
        #: client id -> address of the secret's resident copy (the client's
        #: domain heap, or the root heap in NONE isolation).
        self._secret_addrs: dict[str, int] = {}
        self._secret_rng = runtime.rng.stream("tls/secrets")
        # Model the heap churn Heartbleed exploited: in the unisolated
        # build, connection scratch buffers come and go at low heap
        # addresses, so a later heartbeat buffer reuses a hole *below* the
        # resident session secrets and its over-read sweeps across them.
        self._scratch_addr: Optional[int] = None
        if isolation is IsolationMode.NONE:
            self._scratch_addr = runtime.root.heap.malloc(256)

    def disconnect(self, client_id: str) -> None:
        super().disconnect(client_id)
        self._secrets.pop(client_id, None)
        # A per-connection copy went with its domain; the root's stays
        # until freed here.
        addr = self._secret_addrs.pop(client_id, None)
        if addr is not None and self.isolation is IsolationMode.NONE:
            self.runtime.root.heap.free(addr)

    def secret(self, client_id: str) -> Optional[bytes]:
        """The session secret of ``client_id``; ``None`` before its handshake."""
        if client_id not in self._connections:
            raise SdradError(f"client {client_id!r} is not connected")
        return self._secrets.get(client_id)

    # ------------------------------------------------------------------
    # Record dispatch
    # ------------------------------------------------------------------

    def _handle(self, client_id: str, raw: bytes) -> bytes:
        if client_id not in self._connections:
            raise SdradError(f"client {client_id!r} is not connected")
        metrics = self.metrics
        record = decode_record(raw)
        if record is None:
            metrics.alerts += 1
            return _alert(50)  # decode_error
        if record.content_type == ContentType.HANDSHAKE:
            return self._handle_handshake(client_id, record)
        secret = self._secrets.get(client_id)
        if secret is None:
            metrics.alerts += 1
            return _alert(10)  # unexpected_message
        if record.content_type == ContentType.HEARTBEAT:
            metrics.heartbeats += 1
            if self._scratch_addr is not None:
                # The connection scratch buffer is returned to the heap,
                # leaving a reusable hole below the session secrets.
                self.runtime.root.heap.free(self._scratch_addr)
                self._scratch_addr = None
            ok, payload = self._run(
                client_id, process_heartbeat_in_domain, record.payload, stage=secret
            )
        elif record.content_type == ContentType.APPLICATION_DATA:
            metrics.appdata_records += 1
            kib = (len(record.payload) + 1023) // 1024
            self.runtime.charge(kib * self.runtime.cost.tls_record_per_kib)
            # Record processing happens on in-domain buffers (the toy XOR
            # stands in for AES-GCM); unisolated, it runs on root memory.
            ok, payload = self._run(
                client_id, mask_record_in_domain, record.payload, secret, stage=secret
            )
        else:
            metrics.alerts += 1
            return _alert(10)
        if not ok:
            # The rewind discarded the domain heap, the secret included.
            self._secret_addrs.pop(client_id, None)
            self._place_secret(client_id, secret)
            return self.DISCARDED
        return TlsRecord(record.content_type, VERSION_TLS12, payload).encode()

    def _handle_handshake(self, client_id: str, record: TlsRecord) -> bytes:
        if not record.payload:
            self.metrics.alerts += 1
            return _alert(50)
        hs_type = record.payload[0]
        if hs_type == HandshakeType.CLIENT_HELLO:
            self.runtime.charge(self.runtime.cost.tls_handshake)
            self.metrics.handshakes += 1
            secret = bytes(self._secret_rng.getrandbits(8) for _ in range(SECRET_LEN))
            self._secrets[client_id] = secret
            self._place_secret(client_id, secret)
            payload = struct.pack(">B", HandshakeType.SERVER_HELLO) + b"\x00" * 32
            return TlsRecord(ContentType.HANDSHAKE, VERSION_TLS12, payload).encode()
        if hs_type == HandshakeType.FINISHED:
            return TlsRecord(
                ContentType.HANDSHAKE,
                VERSION_TLS12,
                struct.pack(">B", HandshakeType.FINISHED),
            ).encode()
        self.metrics.alerts += 1
        return _alert(10)

    # ------------------------------------------------------------------
    # Where the secret lives
    # ------------------------------------------------------------------

    def _place_secret(self, client_id: str, secret: bytes) -> None:
        """Write the session secret into the memory its isolation dictates.

        Per-connection: the client's own domain, at the handshake and again
        after a rewind emptied the domain heap — SDRaD's "reconstruct
        domain state from the trusted side" step, charged through
        ``copy_into``. Per-request: nowhere resident (the core stages it
        into each request's domain). None: root memory, beside every other
        session's secret — the Heartbleed precondition; nothing rewinds
        there. A repeated handshake frees the previous copy first.
        """
        old = self._secret_addrs.pop(client_id, None)
        if self.isolation is IsolationMode.PER_CONNECTION:
            udi = self._connections[client_id]
            if old is not None:
                self.runtime.domain(udi).heap.free(old)
            self._secret_addrs[client_id] = self.runtime.copy_into(udi, secret)
        elif self.isolation is IsolationMode.NONE:
            heap = self.runtime.root.heap
            if old is not None:
                heap.free(old)
            self._secret_addrs[client_id] = addr = heap.malloc(SECRET_LEN)
            self.runtime.space.raw_store(addr, secret)

    # ------------------------------------------------------------------
    # Experiment helper
    # ------------------------------------------------------------------

    def leaked_secrets(self, response: bytes, exclude: str) -> list[str]:
        """Which *other* clients' secrets appear in ``response``?

        The E4/Heartbleed assertion: unisolated servers leak victims'
        secrets; per-connection isolation never does.
        """
        victims = []
        for client_id in self._connections:
            secret = self._secrets.get(client_id)
            if client_id != exclude and secret is not None and secret in response:
                victims.append(client_id)
        return victims
