"""A TLS termination service (the OpenSSL use case) over SDRaD domains.

Each client session holds a 48-byte *session secret* (the TLS master-secret
analogue). Where that secret physically lives is the whole experiment:

* ``PER_CONNECTION`` isolation — the secret is copied into the client's own
  domain heap; the (vulnerable) record processing for that client runs in
  the same domain. A Heartbleed over-read can leak at most the client's
  *own* session state, and past the domain boundary it trips MPK and the
  domain is rewound.
* ``NONE`` — all sessions' secrets live side by side in root memory, the
  responder runs unisolated, and one malicious heartbeat exfiltrates other
  clients' secrets (the 2014 disaster, reproduced).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SdradError
from ..sdrad.constants import DomainFlags
from ..sdrad.policy import ProcessCrashed, RewindPolicy
from ..sdrad.runtime import SdradRuntime
from .serving import IsolationMode
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


@dataclass
class TlsSession:
    client_id: str
    udi: int  # -1 when unisolated
    established: bool = False
    secret: bytes = b""
    secret_addr: int = 0  # where the secret lives in simulated memory
    records_processed: int = 0


@dataclass
class TlsMetrics:
    handshakes: int = 0
    heartbeats: int = 0
    appdata_records: int = 0
    rewinds: int = 0
    crashes: int = 0
    alerts: int = 0
    per_client_faults: dict[str, int] = field(default_factory=dict)


class TlsServer:
    """Session manager + record dispatcher for the toy TLS stack."""

    def __init__(
        self,
        runtime: SdradRuntime,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        domain_heap_size: int = 128 * 1024,
        domain_stack_size: int = 64 * 1024,
    ) -> None:
        self.runtime = runtime
        self.isolation = isolation
        self.domain_heap_size = domain_heap_size
        self.domain_stack_size = domain_stack_size
        self.metrics = TlsMetrics()
        self._sessions: dict[str, TlsSession] = {}
        self._secret_rng = runtime.rng.stream("tls/secrets")
        # Model the heap churn Heartbleed exploited: in the unisolated
        # build, connection scratch buffers come and go at low heap
        # addresses, so a later heartbeat buffer reuses a hole *below* the
        # resident session secrets and its over-read sweeps across them.
        self._scratch_addr: Optional[int] = None
        if isolation is IsolationMode.NONE:
            self._scratch_addr = self.runtime.root.heap.malloc(256)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def connect(self, client_id: str) -> None:
        if client_id in self._sessions:
            raise SdradError(f"client {client_id!r} already connected")
        udi = -1
        if self.isolation is IsolationMode.PER_CONNECTION:
            domain = self.runtime.domain_init(
                flags=DomainFlags.RETURN_TO_PARENT,
                heap_size=self.domain_heap_size,
                stack_size=self.domain_stack_size,
            )
            udi = domain.udi
        self._sessions[client_id] = TlsSession(client_id=client_id, udi=udi)

    def disconnect(self, client_id: str) -> None:
        session = self._sessions.pop(client_id, None)
        if session is not None and session.udi >= 0:
            self.runtime.domain_destroy(session.udi)

    def session(self, client_id: str) -> TlsSession:
        try:
            return self._sessions[client_id]
        except KeyError:
            raise SdradError(f"client {client_id!r} is not connected") from None

    # ------------------------------------------------------------------
    # Record dispatch
    # ------------------------------------------------------------------

    def handle_record(self, client_id: str, raw: bytes) -> bytes:
        """Process one TLS record from the wire; returns the response bytes."""
        obs = self.runtime.obs
        if obs is None:
            return self._handle_record(client_id, raw)
        span = obs.start_span("tls.record", client=client_id)
        started = self.runtime.clock.now
        rewinds_before = self.metrics.rewinds
        try:
            response = self._handle_record(client_id, raw)
        except BaseException:
            obs.record_request(
                "tls", self.runtime.clock.now - started, status="crash"
            )
            obs.end_span(span, status="crash")
            raise
        # The TLS alert wire format does not distinguish "your heartbeat
        # faulted" from other internal errors, so the fault signal is the
        # server's own rewind count moving during this record.
        status = "fault" if self.metrics.rewinds > rewinds_before else "ok"
        obs.record_request("tls", self.runtime.clock.now - started, status)
        obs.end_span(span, status=status)
        return response

    def _handle_record(self, client_id: str, raw: bytes) -> bytes:
        session = self.session(client_id)
        record = decode_record(raw)
        if record is None:
            self.metrics.alerts += 1
            return self._alert(50)  # decode_error
        if record.content_type == ContentType.HANDSHAKE:
            return self._handle_handshake(session, record)
        if not session.established:
            self.metrics.alerts += 1
            return self._alert(10)  # unexpected_message
        if record.content_type == ContentType.HEARTBEAT:
            return self._handle_heartbeat(session, record)
        if record.content_type == ContentType.APPLICATION_DATA:
            return self._handle_appdata(session, record)
        self.metrics.alerts += 1
        return self._alert(10)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    def _handle_handshake(self, session: TlsSession, record: TlsRecord) -> bytes:
        if not record.payload:
            self.metrics.alerts += 1
            return self._alert(50)
        hs_type = record.payload[0]
        if hs_type == HandshakeType.CLIENT_HELLO:
            self.runtime.charge(self.runtime.cost.tls_handshake)
            self.metrics.handshakes += 1
            session.secret = bytes(
                self._secret_rng.getrandbits(8) for _ in range(SECRET_LEN)
            )
            session.secret_addr = self._place_secret(session)
            session.established = True
            payload = struct.pack(">B", HandshakeType.SERVER_HELLO) + b"\x00" * 32
            return TlsRecord(ContentType.HANDSHAKE, VERSION_TLS12, payload).encode()
        if hs_type == HandshakeType.FINISHED:
            return TlsRecord(
                ContentType.HANDSHAKE,
                VERSION_TLS12,
                struct.pack(">B", HandshakeType.FINISHED),
            ).encode()
        self.metrics.alerts += 1
        return self._alert(10)

    def _place_secret(self, session: TlsSession) -> int:
        """Write the session secret into the memory its isolation dictates.

        Per-connection: the client's own domain. Per-request: nowhere
        resident (it is staged into each ephemeral domain on use). None:
        root memory, beside every other session's secret — the Heartbleed
        precondition.
        """
        if session.udi >= 0:
            return self.runtime.copy_into(session.udi, session.secret)
        if self.isolation is IsolationMode.PER_REQUEST:
            return 0
        addr = self.runtime.root.heap.malloc(SECRET_LEN)
        self.runtime.space.raw_store(addr, session.secret)
        return addr

    # ------------------------------------------------------------------
    # Heartbeat (the vulnerable path)
    # ------------------------------------------------------------------

    def _run_isolated(self, session: TlsSession, fn, *args):
        """Execute record processing in the session's (or an ephemeral)
        domain; returns the DomainResult."""
        if self.isolation is IsolationMode.PER_REQUEST:
            domain = self.runtime.domain_init(
                flags=DomainFlags.RETURN_TO_PARENT,
                heap_size=self.domain_heap_size,
                stack_size=self.domain_stack_size,
            )
            try:
                self.runtime.copy_into(domain.udi, session.secret)
                return self.runtime.execute(domain.udi, fn, *args, policy=RewindPolicy())
            finally:
                self.runtime.domain_destroy(domain.udi)
        return self.runtime.execute(session.udi, fn, *args, policy=RewindPolicy())

    def _handle_heartbeat(self, session: TlsSession, record: TlsRecord) -> bytes:
        self.metrics.heartbeats += 1
        session.records_processed += 1
        if self.isolation is IsolationMode.NONE:
            if self._scratch_addr is not None:
                # The connection scratch buffer is returned to the heap,
                # leaving a reusable hole below the session secrets.
                self.runtime.root.heap.free(self._scratch_addr)
                self._scratch_addr = None
            try:
                payload = self.runtime.execute_unisolated(
                    process_heartbeat_in_domain, record.payload
                )
            except ProcessCrashed:
                self.metrics.crashes += 1
                self._bump_fault(session.client_id)
                raise
            return TlsRecord(ContentType.HEARTBEAT, VERSION_TLS12, payload).encode()
        result = self._run_isolated(
            session, process_heartbeat_in_domain, record.payload
        )
        if not result.ok:
            # Rewind discarded the domain — including the staged secret.
            self.metrics.rewinds += 1
            self._bump_fault(session.client_id)
            self._restage_secret(session)
            return self._alert(80)  # internal_error, session survives
        return TlsRecord(ContentType.HEARTBEAT, VERSION_TLS12, result.value).encode()

    def _restage_secret(self, session: TlsSession) -> None:
        """After a rewind the domain heap is empty; re-stage session state.

        This is SDRaD's "reconstruct domain state from the trusted side"
        step, and its cost is charged through :meth:`copy_into`. Per-request
        sessions have nothing resident to restage.
        """
        if session.udi >= 0:
            session.secret_addr = self.runtime.copy_into(session.udi, session.secret)

    # ------------------------------------------------------------------
    # Application data
    # ------------------------------------------------------------------

    def _handle_appdata(self, session: TlsSession, record: TlsRecord) -> bytes:
        self.metrics.appdata_records += 1
        session.records_processed += 1
        kib = (len(record.payload) + 1023) // 1024
        self.runtime.charge(kib * self.runtime.cost.tls_record_per_kib)
        # Record processing happens on in-domain buffers (the toy XOR stands
        # in for AES-GCM); in the unisolated build it runs on root memory.
        if self.isolation is IsolationMode.NONE:
            body = self.runtime.execute_unisolated(
                mask_record_in_domain, record.payload, session.secret
            )
        else:
            result = self._run_isolated(
                session, mask_record_in_domain, record.payload, session.secret
            )
            if not result.ok:
                self.metrics.rewinds += 1
                self._bump_fault(session.client_id)
                self._restage_secret(session)
                return self._alert(80)
            body = result.value
        return TlsRecord(ContentType.APPLICATION_DATA, VERSION_TLS12, body).encode()

    # ------------------------------------------------------------------

    def _alert(self, code: int) -> bytes:
        return TlsRecord(21, VERSION_TLS12, bytes([2, code])).encode()

    def _bump_fault(self, client_id: str) -> None:
        faults = self.metrics.per_client_faults
        faults[client_id] = faults.get(client_id, 0) + 1

    # ------------------------------------------------------------------
    # Experiment helper
    # ------------------------------------------------------------------

    def leaked_secrets(self, response: bytes, exclude: str) -> list[str]:
        """Which *other* clients' secrets appear in ``response``?

        The E4/Heartbleed assertion: unisolated servers leak victims'
        secrets; per-connection isolation never does.
        """
        victims = []
        for client_id, session in self._sessions.items():
            if client_id == exclude or not session.secret:
                continue
            if session.secret in response:
                victims.append(client_id)
        return victims
