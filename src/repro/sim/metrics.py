"""Lightweight metrics primitives used by every experiment.

The benchmark harness reports the same *kinds* of rows the paper reports:
throughput deltas (E1), latency distributions (E2, E6), availability
percentages (E3), per-client success rates (E4) and energy totals (E5).

As of the ``repro.obs`` subsystem there is **one** set of metric
primitives: :class:`Counter` and :class:`Gauge` live in
:mod:`repro.obs.metrics` and are re-exported here so historic imports
keep working. An exact :class:`Histogram` surfaces through the obs
snapshot and Prometheus exporters once adopted with
:meth:`~repro.obs.metrics.ObsRegistry.adopt_histogram`.

The exact-sample :class:`Histogram` stays here: experiments record at
most a few hundred thousand observations, so exact storage is affordable
and avoids the bucketing-error caveats a fixed-bucket histogram would
add to result interpretation. (The serving path uses
:class:`repro.obs.metrics.BucketHistogram` instead, which is O(1) per
observation.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ..obs.metrics import Counter, Gauge

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
]


@dataclass
class Summary:
    """Summary statistics of a sample set."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class Histogram:
    """Stores raw observations and computes exact quantiles on demand."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        self._samples.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        self._samples.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Exact sample percentile ``q`` in [0, 100] (linear interpolation)."""
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lower = math.floor(rank)
        upper = math.ceil(rank)
        if lower == upper:
            return ordered[lower]
        frac = rank - lower
        return ordered[lower] * (1.0 - frac) + ordered[upper] * frac

    def summary(self) -> Summary:
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        n = len(self._samples)
        mean = sum(self._samples) / n
        if n > 1:
            var = sum((s - mean) ** 2 for s in self._samples) / (n - 1)
        else:
            var = 0.0
        return Summary(
            count=n,
            mean=mean,
            stdev=math.sqrt(var),
            minimum=min(self._samples),
            maximum=max(self._samples),
            p50=self.percentile(50),
            p95=self.percentile(95),
            p99=self.percentile(99),
        )
