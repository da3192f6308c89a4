"""Error budgets: the SRE-side view of the paper's availability argument.

An availability class is operationally managed as an *error budget*: five
nines over a year is 315.36 s of downtime to "spend". This module tracks
spending against a budget and computes burn rates, which turns the paper's
static arithmetic into the operational question a service owner actually
asks: *at the current fault rate, when do we run out?*

The punchline the paper implies: a restart-recovered service spends ~38 %
of a five-nines yearly budget per fault, so its owner lives two faults from
breach; a rewind-recovered service spends 0.000001 % and can stop thinking
about memory faults as a budget item at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.clock import YEARS
from .availability import downtime_budget


@dataclass
class BudgetEvent:
    """One downtime spend."""

    timestamp: float
    downtime: float
    cause: str


class ErrorBudget:
    """Tracks downtime spending against an availability target."""

    def __init__(
        self,
        availability_target: float,
        horizon: float = YEARS,
    ) -> None:
        self.availability_target = availability_target
        self.horizon = horizon
        self.total = downtime_budget(availability_target, horizon)
        self._events: list[BudgetEvent] = []
        self._spent = 0.0

    # ------------------------------------------------------------------

    def spend(self, timestamp: float, downtime: float, cause: str = "") -> None:
        """Record a downtime event."""
        if downtime < 0:
            raise ValueError(f"downtime cannot be negative, got {downtime}")
        if timestamp < 0:
            raise ValueError(f"timestamp cannot be negative, got {timestamp}")
        self._events.append(
            BudgetEvent(timestamp=timestamp, downtime=downtime, cause=cause)
        )
        self._spent += downtime

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return max(0.0, self.total - self._spent)

    @property
    def exhausted(self) -> bool:
        return self._spent > self.total

    @property
    def spent_fraction(self) -> float:
        if self.total == 0:
            return math.inf if self._spent > 0 else 0.0
        return self._spent / self.total

    # ------------------------------------------------------------------

    def burn_rate(self, now: float) -> float:
        """Budget-fractions per horizon at the observed spending pace.

        A burn rate of 1.0 means the budget lasts exactly the horizon;
        >1.0 means breach before the horizon ends. (Google SRE's multiwindow
        alerts page on burn rates ≥ 2.)
        """
        if now <= 0:
            raise ValueError(f"now must be positive, got {now}")
        elapsed_fraction = min(1.0, now / self.horizon)
        if elapsed_fraction == 0:
            return math.inf if self._spent else 0.0
        return self.spent_fraction / elapsed_fraction

    def projected_breach_time(self, now: float) -> float:
        """Time at which the budget runs out at the current pace (inf if
        never within numeric range)."""
        rate = self.burn_rate(now)
        if rate <= 1.0 and self.spent_fraction <= 1.0 and rate == 0:
            return math.inf
        if self._spent == 0:
            return math.inf
        spend_per_second = self._spent / now
        if spend_per_second == 0:
            return math.inf
        return self.remaining / spend_per_second + now

    def faults_until_breach(self, downtime_per_fault: float) -> float:
        """How many more faults of a given cost the budget absorbs."""
        if downtime_per_fault < 0:
            raise ValueError("downtime per fault cannot be negative")
        if downtime_per_fault == 0:
            return math.inf
        return self.remaining / downtime_per_fault

    def spend_by_cause(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for event in self._events:
            out[event.cause] = out.get(event.cause, 0.0) + event.downtime
        return out
