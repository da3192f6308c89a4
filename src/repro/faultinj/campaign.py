"""Fault-arrival processes for long-horizon experiments.

E3 simulates a *year* of service operation under a given fault rate (the
paper argues about "three faults per year" versus "9·10⁷ recoveries"). The
arrival processes here generate those fault times:

* :class:`PoissonArrivals` — memoryless faults at a mean rate (the standard
  dependability-model assumption);
* :class:`PeriodicArrivals` — deterministic spacing (worst-case analysis and
  exact reproduction of "three faults per year");
* :class:`BurstArrivals` — attack campaigns: quiet periods punctuated by
  rapid-fire fault bursts (a malicious client hammering an exploit).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..sim.rng import RngFactory
from .models import FaultKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.hub import Observability


@dataclass(frozen=True)
class InjectionPlan:
    """One planned fault: when and what kind."""

    timestamp: float
    kind: FaultKind


class ArrivalProcess:
    """Interface: generate fault timestamps within ``[0, horizon)``."""

    def times(self, horizon: float) -> Iterator[float]:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrival times at ``rate`` events/second.

    Also the fleet driver's open-loop request arrivals.
    """

    def __init__(self, rate: float, rng: random.Random) -> None:
        if not 0 <= rate < math.inf:
            raise ValueError(f"rate must be non-negative and finite, got {rate}")
        self.rate = rate
        self._rng = rng

    def times(self, horizon: float) -> Iterator[float]:
        if self.rate == 0:
            return
        t = 0.0
        while True:
            t += self._rng.expovariate(self.rate)
            if t >= horizon:
                return
            yield t


class PeriodicArrivals(ArrivalProcess):
    """Exactly ``count`` faults evenly spaced over the horizon."""

    def __init__(self, count: int, offset_fraction: float = 0.5) -> None:
        if count < 0:
            raise ValueError(f"fault count must be non-negative, got {count}")
        if not 0.0 <= offset_fraction < 1.0:
            raise ValueError("offset_fraction must be in [0, 1)")
        self.count = count
        self.offset_fraction = offset_fraction

    def times(self, horizon: float) -> Iterator[float]:
        if self.count == 0:
            return
        spacing = horizon / self.count
        for i in range(self.count):
            yield (i + self.offset_fraction) * spacing


class BurstArrivals(ArrivalProcess):
    """Poisson bursts; each burst fires ``burst_size`` faults ``gap`` apart."""

    def __init__(
        self,
        burst_rate: float,
        burst_size: int,
        gap: float,
        rng: random.Random,
    ) -> None:
        if not 0 <= burst_rate < math.inf:
            raise ValueError(
                f"burst rate must be non-negative and finite, got {burst_rate}"
            )
        if burst_size <= 0:
            raise ValueError(f"burst size must be positive, got {burst_size}")
        if gap < 0:
            raise ValueError(f"gap must be non-negative, got {gap}")
        self.burst_rate = burst_rate
        self.burst_size = burst_size
        self.gap = gap
        self._rng = rng

    def times(self, horizon: float) -> Iterator[float]:
        if self.burst_rate == 0:
            return
        t = 0.0
        while True:
            t += self._rng.expovariate(self.burst_rate)
            if t >= horizon:
                return
            for i in range(self.burst_size):
                ts = t + i * self.gap
                if ts >= horizon:
                    return
                yield ts


class Campaign:
    """A full injection campaign: arrival process × fault-kind mix."""

    def __init__(
        self,
        arrivals: ArrivalProcess,
        kinds: Sequence[FaultKind],
        weights: Sequence[float] | None = None,
        rng_factory: RngFactory | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        if not kinds:
            raise ValueError("campaign needs at least one fault kind")
        if weights is not None and len(weights) != len(kinds):
            raise ValueError("weights must match kinds one-to-one")
        self.arrivals = arrivals
        self.kinds = list(kinds)
        self.weights = list(weights) if weights is not None else None
        self.obs = obs
        factory = rng_factory or RngFactory(0)
        self._kind_rng = factory.stream("campaign/kinds")

    def plan(self, horizon: float) -> list[InjectionPlan]:
        """Materialise the campaign for a horizon (sorted by time)."""
        if horizon <= 0 or not math.isfinite(horizon):
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        plans = [
            InjectionPlan(
                timestamp=t,
                kind=self._kind_rng.choices(self.kinds, weights=self.weights)[0],
            )
            for t in self.arrivals.times(horizon)
        ]
        plans.sort(key=lambda p: p.timestamp)
        if self.obs is not None:
            for planned in plans:
                self.obs.registry.counter(
                    "faultinj_planned_total", kind=planned.kind.value
                ).increment()
        return plans


#: Fault-kind mix observed in memory-safety CVE studies: overflows dominate,
#: UAF second, the rest are a tail. Used as the default campaign mix.
DEFAULT_FAULT_MIX: list[tuple[FaultKind, float]] = [
    (FaultKind.HEAP_OVERFLOW, 0.35),
    (FaultKind.STACK_SMASH, 0.25),
    (FaultKind.USE_AFTER_FREE, 0.20),
    (FaultKind.DOUBLE_FREE, 0.08),
    (FaultKind.NULL_DEREF, 0.07),
    (FaultKind.WILD_WRITE, 0.05),
]
