"""Multi-worker (multi-process) service cluster.

The paper measures SDRaD "in realistic multi-processing scenarios" (§II):
real NGINX runs N worker processes behind a connection-affine balancer, and
real deployments lean on that as a partial availability mitigation — a
crashed worker takes down only 1/N of the connections while the supervisor
restarts it. This module models exactly that deployment so experiments can
compare three postures on one axis:

* unisolated multi-process — a parser exploit kills one worker: its
  connections reset, its share of traffic is refused for the restart
  window, and the attacker can repeat the kill;
* SDRaD multi-process — the same exploit is rewound inside the worker;
  nothing is lost anywhere;
* (implicitly) the single-process baselines of E4.

All workers share one virtual clock (wall time); each has a private
:class:`~repro.sdrad.runtime.SdradRuntime` (processes share no memory).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import SdradError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.hub import Observability
from ..sdrad.policy import ProcessCrashed
from ..sdrad.runtime import SdradRuntime
from ..sim.clock import VirtualClock
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from .serving import IsolationMode
from .nginx_server import NginxServer


@dataclass
class ClusterMetrics:
    requests: int = 0
    served: int = 0
    refused_worker_down: int = 0
    connections_reset: int = 0
    worker_crashes: int = 0
    worker_restarts: int = 0
    per_worker_crashes: dict[int, int] = field(default_factory=dict)


class _Worker:
    """One worker process: private runtime + server, shared clock."""

    def __init__(
        self,
        index: int,
        clock: VirtualClock,
        cost: CostModel,
        isolation: IsolationMode,
        obs: "Optional[Observability]" = None,
    ) -> None:
        self.index = index
        self.clock = clock
        self.cost = cost
        self.isolation = isolation
        self.obs = obs
        self.down_until = 0.0
        self.restarts = 0
        #: Every outage as a real ``(start, end)`` interval, in order.
        #: Downtime accounting walks these instead of assuming each restart
        #: burned one full window inside the horizon.
        self.outages: list[tuple[float, float]] = []
        self._boot()

    def _boot(self) -> None:
        # All workers share the cluster's one obs hub (as real workers
        # would share a metrics endpoint); counters therefore aggregate
        # across workers and survive individual worker restarts.
        self.runtime = SdradRuntime(clock=self.clock, cost=self.cost, obs=self.obs)
        self.server = NginxServer(self.runtime, isolation=self.isolation)

    @property
    def is_down(self) -> bool:
        return self.clock.now < self.down_until

    def crash_and_schedule_restart(self) -> float:
        """Worker died; supervisor restarts it (stateless → base cost)."""
        restart = self.cost.process_restart_time(0)
        started = self.clock.now
        self.down_until = started + restart
        self.outages.append((started, self.down_until))
        self.restarts += 1
        if self.obs is not None:
            self.obs.registry.release(self.runtime)
        self._boot()  # fresh process image, no connections
        return restart


class NginxCluster:
    """N workers behind a connection-affine (hash) load balancer."""

    def __init__(
        self,
        workers: int = 4,
        isolation: IsolationMode = IsolationMode.PER_CONNECTION,
        clock: Optional[VirtualClock] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        obs: "Optional[Observability]" = None,
    ) -> None:
        if workers < 1:
            raise SdradError(f"cluster needs at least one worker, got {workers}")
        self.clock = clock if clock is not None else VirtualClock()
        self.obs = obs
        if obs is not None:
            obs.bind_clock(self.clock)
        self.cost = cost
        self.isolation = isolation
        self.workers = [
            _Worker(i, self.clock, cost, isolation, obs=obs)
            for i in range(workers)
        ]
        self.metrics = ClusterMetrics()
        self._clients: dict[str, int] = {}  # client -> worker index
        if obs is not None:
            obs.registry.collect(self)

    def collect_counters(self):
        """The count an obs hub reads from :attr:`metrics`, once nonzero."""
        if self.metrics.worker_restarts:
            yield "cluster_worker_restarts_total", (), self.metrics.worker_restarts

    # ------------------------------------------------------------------

    def _worker_for(self, client_id: str) -> _Worker:
        index = self._clients.get(client_id)
        if index is None:
            index = zlib.crc32(client_id.encode("utf-8")) % len(self.workers)
        return self.workers[index]

    def connect(self, client_id: str) -> None:
        if client_id in self._clients:
            raise SdradError(f"client {client_id!r} already connected")
        worker = self._worker_for(client_id)
        self._clients[client_id] = worker.index
        if not worker.is_down:
            worker.server.connect(client_id)

    def disconnect(self, client_id: str) -> None:
        index = self._clients.pop(client_id, None)
        if index is None:
            return
        worker = self.workers[index]
        if client_id in worker.server.connected_clients:
            worker.server.disconnect(client_id)

    # ------------------------------------------------------------------

    def handle(self, client_id: str, raw: bytes) -> bytes:
        """Route one request; emulates the balancer + supervisor behaviour."""
        obs = self.obs
        if obs is None:
            return self._handle(client_id, raw)
        worker_index = self._clients.get(client_id)
        span = obs.start_span(
            "cluster.request", client=client_id, worker=worker_index
        )
        try:
            response = self._handle(client_id, raw)
        except BaseException:
            obs.end_span(span, status="error")
            raise
        if response.startswith(b"HTTP/1.1 502 "):
            status = "worker-crash"
        elif response.startswith(b"HTTP/1.1 503 "):
            status = "refused"
        else:
            status = "ok"
        obs.registry.counter("cluster_requests_total", status=status).increment()
        obs.end_span(span, status=status)
        return response

    def _handle(self, client_id: str, raw: bytes) -> bytes:
        if client_id not in self._clients:
            raise SdradError(f"client {client_id!r} is not connected")
        worker = self.workers[self._clients[client_id]]
        self.metrics.requests += 1

        if worker.is_down:
            self.metrics.refused_worker_down += 1
            return b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"

        if client_id not in worker.server.connected_clients:
            # worker restarted since this client connected: the TCP
            # connection died with the old process; reconnect transparently
            # (what a retrying client/balancer does) but count the reset.
            self.metrics.connections_reset += 1
            worker.server.connect(client_id)

        try:
            response = worker.server.handle(client_id, raw)
        except ProcessCrashed:
            self.metrics.worker_crashes += 1
            self.metrics.per_worker_crashes[worker.index] = (
                self.metrics.per_worker_crashes.get(worker.index, 0) + 1
            )
            restart = worker.crash_and_schedule_restart()
            self.metrics.worker_restarts += 1
            if self.obs is not None:
                self.obs.event(
                    "worker.restart",
                    worker=worker.index,
                    cause="process-crash",
                    duration=restart,
                )
            return b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n"
        self.metrics.served += 1
        return response

    # ------------------------------------------------------------------

    def total_rewinds(self) -> int:
        """Rewinds across all workers (survives worker restarts only for
        currently-live processes, like any in-process counter would)."""
        return sum(worker.server.metrics.rewinds for worker in self.workers)

    def worker_of(self, client_id: str) -> int:
        if client_id not in self._clients:
            raise SdradError(f"client {client_id!r} is not connected")
        return self._clients[client_id]

    def downtime_fraction(self, horizon: float) -> float:
        """Aggregate capacity lost to worker restarts over ``[0, horizon]``.

        Each worker contributes ``1/N`` of capacity. Outages are summed as
        the *recorded* intervals, individually clipped to the horizon — a
        restart window still open at the horizon counts only its elapsed
        part, and a worker can never be "more than down" no matter how its
        windows land. Concurrent outages on different workers add their
        capacity shares (partial capacity, not a binary up/down).
        """
        if horizon <= 0:
            raise SdradError(f"horizon must be positive, got {horizon}")
        total = 0.0
        for worker in self.workers:
            for start, end in worker.outages:
                total += max(0.0, min(end, horizon) - min(start, horizon))
        return total / (len(self.workers) * horizon)

    def capacity_dip(self, horizon: float) -> float:
        """Worst instantaneous capacity loss in ``[0, horizon]``: the peak
        fraction of workers down *at the same moment*.

        ``downtime_fraction`` is the time-averaged loss; this is the depth
        of the worst dip — 0.25 when one of four workers was down, 0.5 if
        two outages ever overlapped, and so on. A sweep over interval
        endpoints is exact because concurrency only changes there.
        """
        if horizon <= 0:
            raise SdradError(f"horizon must be positive, got {horizon}")
        intervals = [
            (min(start, horizon), min(end, horizon))
            for worker in self.workers
            for start, end in worker.outages
        ]
        intervals = [(s, e) for s, e in intervals if e > s]
        if not intervals:
            return 0.0
        peak = 0
        for probe, _ in intervals:
            down = sum(1 for s, e in intervals if s <= probe < e)
            peak = max(peak, down)
        return peak / len(self.workers)
