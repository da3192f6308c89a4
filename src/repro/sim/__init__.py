"""Simulation substrate: virtual clock, cost model, metrics, seeded RNG.

Everything the reproduction measures runs against this package's virtual
clock and cost model; see ``DESIGN.md`` §2 for why wall-clock measurement is
substituted out.
"""

from .clock import (
    DAYS,
    HOURS,
    MICROSECONDS,
    MILLISECONDS,
    MINUTES,
    NANOSECONDS,
    SECONDS,
    YEARS,
    Stopwatch,
    VirtualClock,
)
from .cost import DEFAULT_COST_MODEL, GIB, CostModel
from .metrics import Counter, Gauge, Histogram, Summary
from .rng import RngFactory, ZipfSampler, zipf_weights

__all__ = [
    "DAYS",
    "HOURS",
    "MICROSECONDS",
    "MILLISECONDS",
    "MINUTES",
    "NANOSECONDS",
    "SECONDS",
    "YEARS",
    "Stopwatch",
    "VirtualClock",
    "DEFAULT_COST_MODEL",
    "GIB",
    "CostModel",
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "RngFactory",
    "ZipfSampler",
    "zipf_weights",
]
