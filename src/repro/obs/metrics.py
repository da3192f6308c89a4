"""Metric primitives and the central registry.

This module is the single home of the repo's metric types. The historic
``repro.sim.metrics`` import path re-exports :class:`Counter` and
:class:`Gauge` from here (and keeps its exact-sample ``Histogram``), so
experiments written against the old API keep working while every value
lands in one :class:`ObsRegistry`.

Two histogram flavours coexist on purpose:

* ``repro.sim.metrics.Histogram`` stores raw samples and answers exact
  quantiles — right for offline experiment analysis, wrong for an
  always-on serving metric (unbounded memory).
* :class:`BucketHistogram` (here) uses a fixed set of upper bounds, O(1)
  memory and observe cost — the Prometheus shape, right for the live
  request-latency / rewind-latency / batch-size metrics.

Exact histograms can still be :meth:`adopted <ObsRegistry.adopt_histogram>`
into the registry so one snapshot covers both.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Optional, Union

from ..errors import SdradError

LabelItems = "tuple[tuple[str, str], ...]"


def _label_items(labels: "Optional[dict[str, str]]") -> "tuple[tuple[str, str], ...]":
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing named counter (optionally labelled)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: "Optional[dict[str, str]]" = None) -> None:
        self.name = name
        self.labels = _label_items(labels)
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, labels={dict(self.labels)}, value={self._value})"


class Gauge:
    """A named value that can move in both directions (e.g. live replicas)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(
        self,
        name: str,
        initial: float = 0.0,
        labels: "Optional[dict[str, str]]" = None,
    ) -> None:
        self.name = name
        self.labels = _label_items(labels)
        self._value = float(initial)

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, labels={dict(self.labels)}, value={self._value})"


# Default bucket ladders, in seconds (latency) or requests (batch size).
# Request latencies in the simulation span ~10 µs (memcached op) to ~1 ms
# (TLS handshake) plus occasional 100 ms+ restarts; rewinds sit at ~3.5 µs
# plus scrub cost. The ladders cover those ranges with ~2 buckets/decade.
REQUEST_LATENCY_BUCKETS: "tuple[float, ...]" = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1.0,
)
REWIND_LATENCY_BUCKETS: "tuple[float, ...]" = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 1e-3,
)
BATCH_SIZE_BUCKETS: "tuple[float, ...]" = (1, 2, 4, 8, 16, 32, 64, 128)


def log_buckets(
    low: float, high: float, per_decade: int
) -> "tuple[float, ...]":
    """A geometric bucket ladder from ``low`` to at least ``high``.

    ``per_decade`` bounds the quantile error of interpolated answers: at
    20/decade adjacent bounds differ by ~12%, so any quantile — including
    p999 — is resolved to within that factor no matter how many samples
    land in the histogram. This is the HdrHistogram idea in Prometheus
    clothing: O(1) memory, streaming, mergeable, deterministic.
    """
    if low <= 0 or high <= low:
        raise SdradError(
            f"need 0 < low < high for log buckets, got {low}..{high}"
        )
    if per_decade < 1:
        raise SdradError(
            f"need at least one bucket per decade, got {per_decade}"
        )
    bounds = []
    exponent = math.floor(math.log10(low) * per_decade)
    while True:
        bound = 10.0 ** (exponent / per_decade)
        bounds.append(bound)
        if bound >= high:
            return tuple(bounds)
        exponent += 1


#: The fleet ladder: 20 buckets/decade from 100 ns to 100 s. Coarse
#: 2/decade ladders cannot resolve a p999 — at fleet request volumes the
#: top 0.1% of a run lands whole decades above the median, and the answer
#: degenerates to "somewhere in the last bucket". ~12% bucket spacing
#: keeps interpolated p50/p99/p999 honest while staying O(1) memory.
FLEET_LATENCY_BUCKETS: "tuple[float, ...]" = log_buckets(1e-7, 100.0, 20)

DEFAULT_BUCKETS: "dict[str, tuple[float, ...]]" = {
    "app_request_latency_seconds": REQUEST_LATENCY_BUCKETS,
    "sdrad_rewind_latency_seconds": REWIND_LATENCY_BUCKETS,
    "app_batch_size": BATCH_SIZE_BUCKETS,
    "fleet_request_latency_seconds": FLEET_LATENCY_BUCKETS,
}


class BucketHistogram:
    """Fixed-bucket histogram with Prometheus semantics.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last bound. Memory and observe cost are
    O(len(buckets)) and O(log len(buckets)) regardless of sample count.
    """

    __slots__ = ("name", "labels", "buckets", "_bucket_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        buckets: "Iterable[float]" = REQUEST_LATENCY_BUCKETS,
        labels: "Optional[dict[str, str]]" = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise SdradError(f"histogram {name!r} needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise SdradError(
                f"histogram {name!r} bucket bounds must be strictly increasing"
            )
        if any(math.isinf(b) for b in bounds):
            raise SdradError(
                f"histogram {name!r}: +Inf bucket is implicit, do not pass it"
            )
        self.name = name
        self.labels = _label_items(labels)
        self.buckets = bounds
        # One slot per finite bound plus the +Inf overflow slot.
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left finds the first bound >= value — the Prometheus
        # ``le`` bucket — at C speed; index len(buckets) is the +Inf slot.
        self._bucket_counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    def observe_many(self, value: float, count: int) -> None:
        """``count`` observations of the same ``value`` in one call.

        Exactly equivalent to calling :meth:`observe` ``count`` times —
        the sum is accumulated by repeated addition, not ``value * count``,
        so the float result is bit-identical to the unbatched sequence.
        """
        if count <= 0:
            return
        value = float(value)
        self._bucket_counts[bisect_left(self.buckets, value)] += count
        total = self._sum
        for _ in range(count):
            total += value
        self._sum = total
        self._count += count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> "list[int]":
        """Per-bucket (non-cumulative) counts; last entry is +Inf overflow."""
        return list(self._bucket_counts)

    def cumulative(self) -> "list[tuple[float, int]]":
        """Prometheus-style cumulative (upper_bound, count) pairs incl. +Inf."""
        out: "list[tuple[float, int]]" = []
        running = 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self._bucket_counts[-1]))
        return out

    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._sum / self._count

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the smallest upper bound covering q.

        Coarser than the exact-sample histogram on purpose — answers from a
        fixed-bucket histogram are only ever bucket-edge answers.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._count:
            raise ValueError(f"histogram {self.name!r} is empty")
        target = q * self._count
        running = 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            running += n
            if running >= target:
                return bound
        return math.inf

    def quantile_interpolated(self, q: float) -> float:
        """Prometheus ``histogram_quantile``: linear within the bucket.

        Locates the bucket the q-th sample falls in, then interpolates
        between its bounds by rank — resolving quantiles to a fraction of
        the bucket width instead of snapping to the edge. With a fine
        ladder (:data:`FLEET_LATENCY_BUCKETS`) this makes tail quantiles
        like p999 meaningful. Samples past the last finite bound have no
        upper edge to interpolate toward, so the last bound is returned
        (again matching Prometheus).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._count:
            raise ValueError(f"histogram {self.name!r} is empty")
        target = q * self._count
        running = 0
        for i, (bound, n) in enumerate(zip(self.buckets, self._bucket_counts)):
            if running + n >= target and n:
                lower = self.buckets[i - 1] if i else 0.0
                return lower + (bound - lower) * ((target - running) / n)
            running += n
        return self.buckets[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BucketHistogram({self.name!r}, labels={dict(self.labels)}, "
            f"count={self._count}, sum={self._sum})"
        )


_MetricKey = "tuple[str, tuple[tuple[str, str], ...]]"

#: The label set a family's series past :attr:`ObsRegistry.LABEL_SETS_BOUND`
#: fold into.
OVERFLOW_LABELS: "tuple[tuple[str, str], ...]" = (("overflow", "true"),)


class ObsRegistry:
    """The central metric registry: one namespace for every family.

    Families are keyed by ``(name, sorted label items)``; ``counter()`` /
    ``gauge()`` / ``histogram()`` are get-or-create and return the same
    object for the same key, so call sites can hold on to a metric or
    re-resolve it each time interchangeably.

    A family (one kind and name) holds at most :attr:`LABEL_SETS_BOUND`
    label sets. Once it is full, a request for a label set it does not
    hold returns the family's one overflow series, labelled
    ``overflow="true"`` (:data:`OVERFLOW_LABELS`), which every further new
    label set shares: the family's total stays exact, and so does every
    series created before the bound, but an unbounded label (a key, a
    client address) cannot grow memory or the export without bound. The
    bound is checked only when a series would be created, so resolving an
    existing series costs one dict lookup as before.
    """

    #: Most label sets one metric family holds, its overflow series aside.
    LABEL_SETS_BOUND = 1024

    def __init__(self) -> None:
        self._counters: "dict" = {}
        self._gauges: "dict" = {}
        self._histograms: "dict" = {}
        self._adopted: "dict[str, object]" = {}
        self._sources: "list[object]" = []
        # Label sets held per (kind, name), the overflow series excluded.
        self._family_sizes: "dict[tuple[str, str], int]" = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------

    def _admit(self, kind: str, key: _MetricKey) -> _MetricKey:
        """The key a series missing under ``key`` is created under: ``key``
        itself while its family is below the bound, else the family's
        overflow key."""
        family = (kind, key[0])
        size = self._family_sizes.get(family, 0)
        if size >= self.LABEL_SETS_BOUND:
            return (key[0], OVERFLOW_LABELS)
        self._family_sizes[family] = size + 1
        return key

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_items({k: str(v) for k, v in labels.items()}))
        metric = self._counters.get(key)
        if metric is None:
            key = self._admit("counter", key)
            metric = self._counters.get(key)
            if metric is None:
                metric = Counter(name, labels=dict(key[1]))
                self._counters[key] = metric
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_items({k: str(v) for k, v in labels.items()}))
        metric = self._gauges.get(key)
        if metric is None:
            key = self._admit("gauge", key)
            metric = self._gauges.get(key)
            if metric is None:
                metric = Gauge(name, labels=dict(key[1]))
                self._gauges[key] = metric
        return metric

    def histogram(
        self,
        name: str,
        buckets: "Optional[Iterable[float]]" = None,
        **labels: object,
    ) -> BucketHistogram:
        key = (name, _label_items({k: str(v) for k, v in labels.items()}))
        metric = self._histograms.get(key)
        if metric is None:
            key = self._admit("histogram", key)
            metric = self._histograms.get(key)
            if metric is None:
                if buckets is None:
                    buckets = DEFAULT_BUCKETS.get(name, REQUEST_LATENCY_BUCKETS)
                metric = BucketHistogram(name, buckets=buckets, labels=dict(key[1]))
                self._histograms[key] = metric
        return metric

    def adopt_histogram(self, histogram: object) -> None:
        """Register a foreign exact-sample histogram for snapshot/export.

        Lets the exact-sample ``repro.sim.metrics.Histogram`` surface
        through the same exporters (as a summary).
        """
        name = getattr(histogram, "name", None)
        if not isinstance(name, str):
            raise SdradError("adopted histogram must expose a .name string")
        self._adopted[name] = histogram

    def collect(self, source: object) -> None:
        """Count what ``source`` counts: every query reads the ``(name,
        label items, value)`` series of ``source.collect_counters()`` and
        adds them to the pushed series (the custom-collector pattern of the
        Prometheus client libraries), so a fact is counted once."""
        self._sources.append(source)

    def release(self, source: object) -> None:
        """Stop reading ``source`` (a process the hub outlives) and let go
        of it; its last values fold into pushed series, so no total drops."""
        self._sources.remove(source)
        for name, items, value in source.collect_counters():  # type: ignore[attr-defined]
            self.counter(name, **dict(items)).increment(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def iter_counters(self) -> "list[Counter]":
        """Every counter series, pushed and collected values summed by name
        and labels."""
        values = {key: metric._value for key, metric in self._counters.items()}
        for source in self._sources:
            for name, items, value in source.collect_counters():  # type: ignore[attr-defined]
                values[name, items] = values.get((name, items), 0) + value
        counters = [Counter(name, dict(items)) for name, items in values]
        for counter, value in zip(counters, values.values()):
            counter._value = value
        return counters

    def iter_gauges(self) -> "list[Gauge]":
        return list(self._gauges.values())

    def iter_histograms(self) -> "list[BucketHistogram]":
        return list(self._histograms.values())

    def iter_adopted(self) -> "list[object]":
        return [self._adopted[name] for name in sorted(self._adopted)]

    def counter_total(self, name: str, **labels: object) -> int:
        """Sum of a counter family across label sets matching ``labels``.

        Only the labels given are constrained; e.g.
        ``counter_total("app_requests_total", app="memcached")`` sums over
        every ``status``.
        """
        want = {k: str(v) for k, v in labels.items()}
        total = 0
        for metric in self.iter_counters():
            if metric.name != name:
                continue
            have = dict(metric.labels)
            if all(have.get(k) == v for k, v in want.items()):
                total += metric.value
        return total

    def gauge_value(self, name: str, **labels: object) -> float:
        key = (name, _label_items({k: str(v) for k, v in labels.items()}))
        metric = self._gauges.get(key)
        return metric.value if metric is not None else 0.0

    def snapshot(self) -> "dict[str, object]":
        """Flatten everything into a JSON-friendly dict, sorted by key.

        Keys are ``kind/name{label="v",...}``; histogram values are
        ``{"count", "sum", "buckets": {le: cumulative}}``.
        """
        out: "dict[str, object]" = {}
        for metric in self.iter_counters():
            out[f"counter/{_render_key(metric.name, metric.labels)}"] = metric.value
        for (name, items), metric in self._gauges.items():
            out[f"gauge/{_render_key(name, items)}"] = metric.value
        for (name, items), metric in self._histograms.items():
            out[f"histogram/{_render_key(name, items)}"] = {
                "count": metric.count,
                "sum": metric.sum,
                "buckets": {
                    ("+Inf" if math.isinf(le) else repr(le)): n
                    for le, n in metric.cumulative()
                },
            }
        for name in sorted(self._adopted):
            hist = self._adopted[name]
            count = getattr(hist, "count", 0)
            if count:
                out[f"summary/{name}"] = hist.summary().as_dict()  # type: ignore[attr-defined]
            else:
                out[f"summary/{name}"] = {"count": 0}
        return dict(sorted(out.items()))


def _render_key(name: str, items: "tuple[tuple[str, str], ...]") -> str:
    if not items:
        return name
    labels = ",".join(f'{k}="{v}"' for k, v in items)
    return f"{name}{{{labels}}}"
