"""The serving half that every SDRaD request/response server shares.

The paper retrofits Memcached, NGINX and OpenSSL onto one protocol: run
the untrusted work inside a domain, rewind on a fault, then answer from
the trusted side. :class:`DomainServer` implements that protocol once —
the connection registry, the three isolation modes, the isolated run
with rewind, crash and watchdog accounting (:meth:`DomainServer._run`,
which all three servers call), the pipelined batch with its per-request
fallback, and the observability wrappers. A concrete server supplies
only what differs between applications: its domain bodies, its
trusted-side handling, its wire bytes for a refused and a discarded
request, and how a discard is counted.

Isolation modes (E1's ablation axis):

* ``PER_CONNECTION`` — one persistent domain per client (the paper's
  deployment: cheap, contains clients from each other);
* ``PER_REQUEST``   — a fresh domain per request (strongest discard
  semantics, pays domain setup per request);
* ``NONE``          — run in the root compartment with abort-on-detect
  (the unprotected baseline: any detected fault kills the process).

The watchdog's quarantine is enforced here and nowhere else: a
quarantined client is refused at the front door of :meth:`DomainServer.
_handle`, before any charge, parse or domain work, and a batch from a
quarantined client degenerates to that per-request path.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, ClassVar, Optional

from ..errors import SdradError
from ..memory.layout import DEFAULT_DOMAIN_STACK
from ..sdrad.constants import ROOT_UDI, DomainFlags
from ..sdrad.policy import ProcessCrashed
from ..sdrad.runtime import SdradRuntime
from ..sdrad.watchdog import FaultWatchdog


class IsolationMode(enum.Enum):
    PER_CONNECTION = "per-connection"
    PER_REQUEST = "per-request"
    NONE = "none"


_PER_CONNECTION = IsolationMode.PER_CONNECTION  # hot-path enum members
_PER_REQUEST = IsolationMode.PER_REQUEST
_RETURN_TO_PARENT = DomainFlags.RETURN_TO_PARENT


class DomainServer:
    """Connection registry + isolated parsing + trusted apply.

    Subclasses set the class attributes below and ``self.metrics`` (a
    dataclass with ``rewinds``, ``crashes`` and ``per_client_faults``; with
    a watchdog also ``quarantines`` and ``quarantine_refusals``). A server
    that parses each request in one domain entry — Memcached, NGINX — also
    counts ``requests`` and implements ``_apply_all`` (trusted-side
    handling of a sequence of parsed requests, ``None`` for one the parser
    rejected, returning one response each, in order) and ``_discard``
    (count a rewound request and return :attr:`DISCARDED`). ``_apply_all``
    never answers :attr:`REFUSED` or :attr:`DISCARDED`: the pipelined obs
    path records every response of a batch that parsed in one entry as
    ``ok`` without looking at it. A server with its own
    trusted-side dispatch — TLS decodes records and runs the handshake
    outside any domain — overrides ``_handle`` instead and calls
    :meth:`_run` for each piece of untrusted work.
    """

    #: Label of the app in spans and metrics.
    app: ClassVar[str]
    #: What one request is called in its span name (``<app>.<name>``).
    request_name: ClassVar[str] = "request"
    #: Answer to a request from a quarantined client.
    REFUSED: ClassVar[bytes]
    #: Answer to a request whose parse faulted and was rewound.
    DISCARDED: ClassVar[bytes]
    #: Domain body that parses one raw request (a module-level function,
    #: stored with ``staticmethod`` so ``execute`` gets the function itself).
    _parse: ClassVar[Callable[..., Any]]
    #: Domain body that parses a whole pipeline in one entry; without one,
    #: a batch is the per-request loop.
    _parse_batch: ClassVar[Optional[Callable[..., Any]]] = None
    #: ``CostModel`` field charged per request before it is parsed, if any.
    request_cost: ClassVar[Optional[str]] = None
    #: Stack size of every domain the server creates.
    domain_stack_size: int = DEFAULT_DOMAIN_STACK

    def __init__(
        self,
        runtime: SdradRuntime,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        domain_heap_size: int = 128 * 1024,
        watchdog: Optional[FaultWatchdog] = None,
    ) -> None:
        self.runtime = runtime
        self.isolation = isolation
        self.domain_heap_size = domain_heap_size
        self.watchdog = watchdog
        self._connections: dict[str, int] = {}  # client id -> udi
        #: Whether the last batch ran the single-entry pipelined path, in
        #: which case every response is "ok" by construction and the obs
        #: wrapper can skip per-response classification.
        self._batch_pipelined = True
        self._request_span = f"{self.app}.{self.request_name}"
        self._batch_span = f"{self.app}.batch"
        if runtime.obs is None:
            # With observability off the obs wrappers below are pure
            # dead weight (an extra frame and a ``None`` check per
            # request); bind dispatch straight to the implementations so
            # the off path stays a single attribute lookup.
            self.handle = self._handle
            self.handle_batch = self._handle_batch

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def connect(self, client_id: str) -> None:
        if client_id in self._connections:
            raise SdradError(f"client {client_id!r} already connected")
        if self.isolation is _PER_CONNECTION:
            self._connections[client_id] = self._new_domain()
        else:
            self._connections[client_id] = ROOT_UDI

    def disconnect(self, client_id: str) -> None:
        udi = self._connections.pop(client_id, None)
        if udi is not None and udi != ROOT_UDI:
            self.runtime.domain_destroy(udi)

    @property
    def connected_clients(self) -> list[str]:
        return list(self._connections)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _status(self, response: bytes) -> str:
        """Span/metric status derived from the wire response.

        ``refused`` — rejected at the front door (quarantine, no domain
        work); ``fault`` — a domain fault was rewound and the request
        discarded; ``ok`` — everything else, including protocol-level
        client errors (the *server* working correctly on bad input).
        """
        if response == self.REFUSED:
            return "refused"
        return "fault" if response == self.DISCARDED else "ok"

    def handle(self, client_id: str, raw: bytes) -> bytes:
        """Process one request from ``client_id``; returns the response.

        Raises :class:`ProcessCrashed` only in ``NONE`` isolation, when a
        fault escapes containment — the resilience layer turns that into
        restart downtime; only that counts as a ``crash`` request (a caller
        error ends the span as ``error`` and counts no request).
        """
        obs = self.runtime.obs
        if obs is None:
            return self._handle(client_id, raw)
        clock = self.runtime.clock
        span = obs.start_span(self._request_span, client=client_id)
        started = clock.now
        try:
            response = self._handle(client_id, raw)
        except ProcessCrashed:
            obs.record_request(self.app, clock.now - started, "crash")
            obs.end_span(span, "crash")
            raise
        except BaseException:
            obs.end_span(span, "error")
            raise
        status = self._status(response)
        obs.record_request(self.app, clock.now - started, status)
        obs.end_span(span, status)
        return response

    def _handle(self, client_id: str, raw: bytes) -> bytes:
        if client_id not in self._connections:
            raise SdradError(f"client {client_id!r} is not connected")
        self.metrics.requests += 1
        if self.watchdog is not None and self.watchdog.is_quarantined(client_id):
            # Refused at the front door: no parsing, no domain, ~zero cost.
            self.metrics.quarantine_refusals += 1
            return self.REFUSED
        if self.request_cost is not None:
            runtime = self.runtime
            runtime.charge(getattr(runtime.cost, self.request_cost))
        ok, parsed = self._run(client_id, self._parse, raw)
        return self._apply_all((parsed,))[0] if ok else self._discard()

    def _run(
        self,
        client_id: str,
        body: Callable[..., Any],
        *args: Any,
        stage: Optional[bytes] = None,
    ) -> tuple[bool, Any]:
        """Run ``body(handle, *args)`` for ``client_id`` as the isolation
        mode dictates; returns ``(True, value)``, or ``(False, None)`` when
        the body faulted and its domain was rewound.

        The rewind is counted here, once: the server's ``rewinds``, the
        client's fault and the watchdog. ``stage`` is copied into a
        per-request domain before the body runs — session state that a
        per-connection domain keeps resident. In ``NONE`` isolation a fault
        has nothing to contain it: the crash is counted and
        :class:`ProcessCrashed` propagates.
        """
        runtime = self.runtime
        if self.isolation is _PER_CONNECTION:
            result = runtime.execute(self._connections[client_id], body, *args)
        elif self.isolation is _PER_REQUEST:
            udi = self._new_domain()
            try:
                if stage is not None:
                    runtime.copy_into(udi, stage)
                result = runtime.execute(udi, body, *args)
            finally:
                # The next request's init adopts this domain's regions and
                # key (``SdradRuntime.domain_retire``).
                runtime.domain_retire(udi)
        else:
            # Baseline: no domain, no switch cost — and no containment.
            try:
                return True, runtime.execute_unisolated(body, *args)
            except ProcessCrashed:
                self.metrics.crashes += 1
                self._bump_fault(client_id)
                raise

        if not result.ok:
            metrics = self.metrics
            metrics.rewinds += 1
            self._bump_fault(client_id)
            if self.watchdog is not None and self.watchdog.record_fault(client_id):
                metrics.quarantines += 1
            return False, None
        return True, result.value

    def handle_batch(self, client_id: str, raws: list[bytes]) -> list[bytes]:
        """Process a pipeline of requests in one domain entry.

        Per-connection isolation parses the whole pipeline inside a single
        enter/exit of the connection's domain — the switch cost is amortised
        over ``len(raws)`` requests — and then applies the parsed requests
        trusted-side in order. Nothing is applied until the entire batch has
        parsed, so a fault on any request rewinds a batch that has had no
        effect yet; the server then falls back to per-request handling, in
        which only the offending request is discarded and every other
        request is parsed and applied exactly once.

        Isolation modes without a persistent domain (``PER_REQUEST``,
        ``NONE``) have nothing to amortise; the pipeline degenerates to the
        per-request loop, as does a quarantined client or a server without
        a pipeline parser.
        """
        obs = self.runtime.obs
        if obs is None:
            return self._handle_batch(client_id, raws)
        clock = self.runtime.clock
        span = obs.start_span(self._batch_span, client=client_id, size=len(raws))
        started = clock.now
        try:
            responses = self._handle_batch(client_id, raws)
        except ProcessCrashed:
            # As in ``handle``: the crashed request counts as a ``crash``
            # request. The batch's earlier requests died with the process
            # before their responses left it, so they count none.
            obs.record_batch(self.app, len(raws))
            obs.record_request(self.app, clock.now - started, "crash")
            obs.end_span(span, status="crash")
            raise
        except BaseException:
            obs.end_span(span, status="error")
            raise
        elapsed = clock.now - started
        # Per-request accounting with the batch's amortised latency: the
        # whole point of pipelining is that each request's share shrinks.
        share = elapsed / len(responses) if responses else 0.0
        if self._batch_pipelined:
            # Steady state: the batch parsed and applied in one pipelined
            # entry, so every status is "ok" by construction — record the
            # batch and all its requests in one fused call without
            # inspecting the responses.
            obs.record_pipeline(self.app, len(raws), share, len(responses))
            batch_status = "ok"
        else:
            obs.record_batch(self.app, len(raws))
            # Fallback or degenerate batch (fault mid-parse, quarantine,
            # non-persistent isolation): classify each response.
            statuses = [self._status(r) for r in responses]
            obs.record_requests(self.app, share, statuses)
            batch_status = "ok" if all(s == "ok" for s in statuses) else "partial"
        obs.end_span(span, status=batch_status)
        return responses

    def _handle_batch(self, client_id: str, raws: list[bytes]) -> list[bytes]:
        if client_id not in self._connections:
            raise SdradError(f"client {client_id!r} is not connected")
        if not raws:
            return []
        result = None
        if (
            self.isolation is _PER_CONNECTION
            and self._parse_batch is not None
            and (self.watchdog is None or not self.watchdog.is_quarantined(client_id))
        ):
            runtime = self.runtime
            if self.request_cost is not None:
                runtime.charge(len(raws) * getattr(runtime.cost, self.request_cost))
            result = runtime.execute(self._connections[client_id], self._parse_batch, raws)
        # A degenerate batch, or one whose rewind discarded the whole
        # (unapplied) batch: handle each request in its own entry so only
        # an offender errors.
        self._batch_pipelined = result is not None and result.ok
        if not self._batch_pipelined:
            return [self._handle(client_id, raw) for raw in raws]
        self.metrics.requests += len(raws)
        return self._apply_all(result.value)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _new_domain(self) -> int:
        """A fresh domain for a connection or a request; returns its udi."""
        return self.runtime.domain_init(
            flags=_RETURN_TO_PARENT,
            heap_size=self.domain_heap_size,
            stack_size=self.domain_stack_size,
        ).udi

    def _bump_fault(self, client_id: str) -> None:
        faults = self.metrics.per_client_faults
        faults[client_id] = faults.get(client_id, 0) + 1
