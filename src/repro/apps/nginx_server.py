"""An NGINX-like HTTP server with SDRaD-isolated worker parsing.

The second of the paper's three use cases. NGINX's architecture maps onto
SDRaD naturally: each worker's request-processing runs in a domain, the
routing table and accounting stay in root memory. A crafted request that
smashes the parser is rewound and answered with ``500``; in the unisolated
baseline it kills the worker process. The serving half is
:class:`~repro.apps.serving.DomainServer`; this module adds the routing
apply and NGINX's per-request worker cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sdrad.runtime import SdradRuntime
from ..sdrad.watchdog import FaultWatchdog
from .http import (
    HttpResponse,
    default_router,
    parse_pipeline_in_domain,
    parse_request_in_domain,
)
from .serving import DomainServer, IsolationMode

_BAD_REQUEST = HttpResponse(status=400, reason="Bad Request", body=b"bad request\n").encode()


@dataclass
class NginxMetrics:
    requests: int = 0
    responses_2xx: int = 0
    responses_4xx: int = 0
    responses_5xx: int = 0
    rewinds: int = 0
    crashes: int = 0
    quarantines: int = 0
    quarantine_refusals: int = 0
    per_client_faults: dict[str, int] = field(default_factory=dict)


class NginxServer(DomainServer):
    """Connection-oriented HTTP server over the SDRaD runtime."""

    app = "nginx"
    REFUSED = HttpResponse(
        status=429, reason="Too Many Requests", body=b"quarantined\n"
    ).encode()
    DISCARDED = HttpResponse(
        status=500, reason="Internal Server Error", body=b"request discarded\n"
    ).encode()
    _parse = staticmethod(parse_request_in_domain)
    _parse_batch = staticmethod(parse_pipeline_in_domain)
    request_cost = "nginx_request"

    def __init__(
        self,
        runtime: SdradRuntime,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        domain_heap_size: int = 128 * 1024,
        watchdog: Optional[FaultWatchdog] = None,
    ) -> None:
        self.router = default_router()
        self.metrics = NginxMetrics()
        super().__init__(runtime, isolation, domain_heap_size, watchdog)

    def _discard(self) -> bytes:
        self.metrics.responses_5xx += 1
        return self.DISCARDED

    def _apply_all(self, requests) -> list[bytes]:
        out = []
        for request in requests:
            if request is None:
                self.metrics.responses_4xx += 1
                out.append(_BAD_REQUEST)
                continue
            response = self.router.route(request)
            if 200 <= response.status < 300:
                self.metrics.responses_2xx += 1
            elif 400 <= response.status < 500:
                self.metrics.responses_4xx += 1
            else:
                self.metrics.responses_5xx += 1
            out.append(response.encode())
        return out
