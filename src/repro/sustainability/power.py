"""Server power models.

The sustainability argument needs watts. We use the standard linear
utilisation model (SPECpower-style): ``P(u) = P_idle + (P_max - P_idle)·u``,
multiplied by datacentre PUE. Defaults describe a mainstream dual-socket
1U server of the paper's era; every constant is a constructor argument so
E5's sensitivity sweeps can vary them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.clock import HOURS


@dataclass(frozen=True)
class ServerPowerModel:
    """Linear power-vs-utilisation model for one server."""

    idle_watts: float = 110.0
    max_watts: float = 320.0
    pue: float = 1.4

    def __post_init__(self) -> None:
        if self.idle_watts < 0 or self.max_watts < self.idle_watts:
            raise ValueError(
                f"need 0 <= idle <= max, got idle={self.idle_watts}, "
                f"max={self.max_watts}"
            )
        if self.pue < 1.0:
            raise ValueError(f"PUE cannot be below 1.0, got {self.pue}")

    def watts(self, utilization: float) -> float:
        """Facility draw (watts) at a CPU utilisation in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        server = self.idle_watts + (self.max_watts - self.idle_watts) * utilization
        return server * self.pue

    def energy_joules(self, utilization: float, seconds: float) -> float:
        """Energy for a steady utilisation over a duration."""
        if seconds < 0:
            raise ValueError(f"duration cannot be negative, got {seconds}")
        return self.watts(utilization) * seconds

    def energy_kwh(self, utilization: float, seconds: float) -> float:
        return self.energy_joules(utilization, seconds) / (1000.0 * HOURS)


def joules_to_kwh(joules: float) -> float:
    return joules / (1000.0 * HOURS)
