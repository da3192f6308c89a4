"""Fault-arrival processes for long-horizon experiments.

E3 simulates a *year* of service operation under a given fault rate (the
paper argues about "three faults per year" versus "9·10⁷ recoveries"). The
arrival processes here generate those fault times:

* :class:`PoissonArrivals` — memoryless faults at a mean rate (the standard
  dependability-model assumption);
* :class:`PeriodicArrivals` — deterministic spacing (worst-case analysis and
  exact reproduction of "three faults per year").

Statistical fault-injection campaigns live in :mod:`repro.campaigns`.
"""

from __future__ import annotations

import math
import random
from typing import Iterator


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
