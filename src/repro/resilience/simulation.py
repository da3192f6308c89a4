"""Long-horizon service availability simulation.

E3/E5 simulate a service for up to a year of virtual time under a fault
arrival process and a recovery strategy. One pass over the sorted fault
times builds the downtime intervals; request traffic is integrated
analytically (``rate × uptime``) because a year of per-request events is
neither tractable nor necessary — downtime intervals are what decide
availability. Faults at equal times are handled in schedule order.

Semantics:

* a fault arriving while the service is already down is *absorbed* (the
  restart in progress also clears it), matching how a supervisor restart
  handles a crash storm;
* zero-downtime strategies (SDRaD rewind) still lose the faulted request(s)
  and accumulate their microscopic recovery latencies, which is exactly the
  accounting behind the paper's ">9·10⁷ recoveries" headroom number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..sim.clock import YEARS
from .availability import availability_from_downtime, nines
from .strategy import StrategySpec


@dataclass
class ServiceOutcome:
    """Result of one simulated (strategy × fault-arrival) run."""

    strategy: str
    horizon: float
    faults_injected: int
    faults_recovered: int
    faults_absorbed: int
    downtime: float
    availability: float
    achieved_nines: float
    requests_offered: float
    requests_served: float
    requests_dropped: float

    @property
    def meets_five_nines(self) -> bool:
        return self.availability >= 0.99999


class ServiceAvailabilitySimulation:
    """Drives one strategy through a fault schedule.

    :meth:`run` is a pure function of the spec, schedule, horizon and
    request rate: calling it again gives the same outcome.
    """

    def __init__(
        self,
        spec: StrategySpec,
        fault_times: Sequence[float],
        horizon: float = YEARS,
        request_rate: float = 0.0,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if request_rate < 0:
            raise ValueError(f"request rate cannot be negative, got {request_rate}")
        self.spec = spec
        self.fault_times = sorted(t for t in fault_times if 0 <= t < horizon)
        self.horizon = horizon
        self.request_rate = request_rate
        #: ``(down_at, up_at)`` per restart of the last :meth:`run`,
        #: ``up_at`` clipped to the horizon.
        self.down_intervals: list[tuple[float, float]] = []

    def run(self) -> ServiceOutcome:
        spec = self.spec
        dt = spec.downtime_per_fault
        intervals: list[tuple[float, float]] = []
        down_until = -1.0
        recovered = absorbed = requests_lost = 0
        micro_downtime = 0.0
        for now in self.fault_times:
            if now < down_until:
                absorbed += 1
                continue
            recovered += 1
            requests_lost += spec.requests_lost_per_fault
            # In-process recovery is so short that modelling it as a down/up
            # interval would drown the list; account it directly instead.
            if dt < 1e-3:
                micro_downtime += dt
                continue
            # A restart still running at the horizon is cut off there.
            down_until = min(now + dt, self.horizon)
            intervals.append((now, down_until))
        self.down_intervals = intervals

        downtime = sum(up - down for down, up in intervals) + micro_downtime
        availability = availability_from_downtime(downtime, self.horizon)
        offered = self.request_rate * self.horizon
        dropped = self.request_rate * downtime + requests_lost
        dropped = min(dropped, offered)
        return ServiceOutcome(
            strategy=spec.name,
            horizon=self.horizon,
            faults_injected=len(self.fault_times),
            faults_recovered=recovered,
            faults_absorbed=absorbed,
            downtime=downtime,
            availability=availability,
            achieved_nines=nines(availability),
            requests_offered=offered,
            requests_served=offered - dropped,
            requests_dropped=dropped,
        )


def compare_strategies(
    specs: Sequence[StrategySpec],
    fault_times: Sequence[float],
    horizon: float = YEARS,
    request_rate: float = 0.0,
) -> list[ServiceOutcome]:
    """Run the same fault schedule through several strategies (E3's rows)."""
    return [
        ServiceAvailabilitySimulation(
            spec, fault_times, horizon=horizon, request_rate=request_rate
        ).run()
        for spec in specs
    ]
