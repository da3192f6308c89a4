"""The observability hub: one object wiring spans, metrics and sampling.

An :class:`Observability` instance is handed to :class:`SdradRuntime`
(``obs=`` keyword) and to the app servers; everything it owns — the span
buffer, the metric registry, the sampler state — is per-run, so two
simulations never share observability state by accident.

Fast-path contract
------------------

The default is ``obs=None`` and every instrumentation site in the hot
path guards with a single ``if obs is not None`` — the disabled cost is
one attribute load and a falsy check, verified by the ``memcached_obs``
bench. With obs enabled, the hot path is budgeted for the ≤1.05x
wall-clock gate (DESIGN.md §9):

* an open span is a :class:`Span` on the hub's stack; when it ends, the
  buffer stores it as one row of flat columns (ids, interned name and
  status codes, timestamps) and lets the object go, so a retained span
  holds no object, boxed id or boxed timestamp. The row's attrs are a
  read-only mapping shared by every stored row with the same items, so
  retained spans hold one dict per distinct attribute set. Names and
  statuses are materialised only when a span is read (export, queries);
* once the buffer saturates, span *construction* stops too: the stack
  tracks the shared :data:`DROPPED` placeholder while ids, the sampling
  accumulator and the ``dropped`` counter keep advancing exactly as if
  the span had been built and then dropped, for spans and events alike,
  under a dropped parent too — virtual time and metric values are
  bit-identical either way;
* :meth:`record_request`/:meth:`record_batch` resolve their metric
  handles once per ``(app, status)`` and reuse them — label resolution is
  a registry-construction cost, not a per-request cost.

When obs is enabled but ``sampling < 1.0``, span construction is skipped
for unsampled traces (a shared sentinel is pushed instead, no
allocation), while **metrics are always recorded** — counters must stay
exact for :func:`repro.sdrad.telemetry.consistency_check` to cross-check
them against the runtime's own statistics.

Sampling is deterministic: an accumulator gains ``sampling`` per root
span and fires when it reaches 1.0, so ``sampling=0.25`` keeps exactly
every 4th trace — reproducible without consuming any RNG stream.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from .metrics import ObsRegistry
from .spans import ObsError, Span, SpanBuffer


class _UnsampledSpan:
    """Shared stack placeholder for spans of an unsampled trace.

    Keeps LIFO bookkeeping intact without allocating per-span objects on
    the sampled-out path. All methods accept-and-ignore so call sites can
    treat it like a Span when annotating attributes.
    """

    __slots__ = ()

    sampled = False

    def set_attrs(self, **attrs: object) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unsampled span>"


class _DroppedSpan(_UnsampledSpan):
    """Placeholder for a sampled span sacrificed to a saturated buffer.

    Distinct from :data:`UNSAMPLED` because the *trace was sampled*: ids
    advanced, metrics recorded, only the span record itself is gone —
    ``sampled`` stays ``True`` so callers branching on it behave as if
    the span existed, and ``end_span`` turns it into a ``dropped`` count.
    """

    __slots__ = ()

    sampled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<dropped span (buffer full)>"


UNSAMPLED = _UnsampledSpan()
DROPPED = _DroppedSpan()

SpanLike = Union[Span, _UnsampledSpan]


class Observability:
    """Per-run hub: span buffer + metric registry + deterministic sampler."""

    def __init__(
        self,
        registry: Optional[ObsRegistry] = None,
        sampling: float = 1.0,
        clock: Optional[object] = None,
        span_capacity: Optional[int] = 100_000,
    ) -> None:
        if not 0.0 <= sampling <= 1.0:
            raise ObsError(f"sampling must be in [0, 1], got {sampling}")
        self.registry = registry if registry is not None else ObsRegistry()
        self.sampling = sampling
        self.clock = clock
        self.buffer = SpanBuffer(capacity=span_capacity)
        self._stack: "list[SpanLike]" = []
        self._next_span_id = 1
        self._next_trace_id = 1
        self._accum = 0.0
        # (app, status) -> (counter, histogram); app -> (counter, histogram).
        self._request_metrics: dict = {}
        self._batch_metrics: dict = {}
        self._pipeline_metrics: dict = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def bind_clock(self, clock: object) -> None:
        """Adopt the runtime's virtual clock unless one was given explicitly."""
        if self.clock is None:
            self.clock = clock

    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample_root(self) -> bool:
        self._accum += self.sampling
        if self._accum >= 1.0 - 1e-12:
            self._accum -= 1.0
            return True
        return False

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def start_span(self, name: str, **attrs: object) -> SpanLike:
        """Open a span as a child of the innermost open span (if any).

        Returns the span to later pass to :meth:`end_span`. May return the
        shared unsampled placeholder (trace sampled out) or the shared
        dropped placeholder (buffer saturated); callers treat all three
        uniformly.
        """
        stack = self._stack
        if stack:
            parent = stack[-1]
            if parent is UNSAMPLED:
                stack.append(UNSAMPLED)
                return UNSAMPLED
            if parent is DROPPED or self.buffer.full:
                # Saturation fast path: advance the id exactly as the
                # build-then-drop path would, skip the construction.
                self._next_span_id += 1
                stack.append(DROPPED)
                return DROPPED
            span = Span(
                span_id=self._next_span_id,
                trace_id=parent.trace_id,  # type: ignore[union-attr]
                parent_id=parent.span_id,  # type: ignore[union-attr]
                name=name,
                start=self.now(),
                attrs=attrs,
            )
        else:
            if not self._sample_root():
                stack.append(UNSAMPLED)
                return UNSAMPLED
            if self.buffer.full:
                self._next_span_id += 1
                self._next_trace_id += 1
                stack.append(DROPPED)
                return DROPPED
            span = Span(
                span_id=self._next_span_id,
                trace_id=self._next_trace_id,
                parent_id=None,
                name=name,
                start=self.now(),
                attrs=attrs,
            )
            self._next_trace_id += 1
        self._next_span_id += 1
        stack.append(span)
        return span

    def end_span(
        self, span: SpanLike, status: str = "ok", **attrs: object
    ) -> None:
        """Close ``span``; it must be the innermost open span (strict LIFO)."""
        stack = self._stack
        if not stack:
            raise ObsError("end_span with no open span")
        top = stack.pop()
        if span is UNSAMPLED or span is DROPPED:
            if top is not span:
                stack.append(top)
                raise ObsError(
                    f"mis-nested end_span: expected {span!r}, "
                    f"innermost open span is {top!r}"
                )
            if span is DROPPED:
                self.buffer.dropped += 1
            return
        if top is not span:
            stack.append(top)
            raise ObsError(
                f"mis-nested end_span: {span!r} is not the innermost open "
                f"span ({top!r} is)"
            )
        span.end = self.now()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self.buffer.append(span)

    @contextmanager
    def span(self, name: str, **attrs: object) -> "Iterator[SpanLike]":
        """Context-managed span; exceptions close it with status ``error``."""
        handle = self.start_span(name, **attrs)
        try:
            yield handle
        except BaseException:
            self.end_span(handle, status="error")
            raise
        else:
            self.end_span(handle)

    def event(self, name: str, **attrs: object) -> Optional[Span]:
        """Record a point-in-time (zero-duration) span under the open span.

        Used for lifecycle moments that have a cause but no extent of their
        own at recording time — a fault classification, a rewind (whose
        simulated duration rides in ``attrs``), a quarantine trip. Returns
        ``None`` when the trace is sampled out or the buffer is saturated.
        """
        stack = self._stack
        if stack:
            parent = stack[-1]
            if parent is UNSAMPLED:
                return None
            if parent is DROPPED or self.buffer.full:
                self._next_span_id += 1
                self.buffer.dropped += 1
                return None
            trace_id = parent.trace_id  # type: ignore[union-attr]
            parent_id: Optional[int] = parent.span_id  # type: ignore[union-attr]
        else:
            if not self._sample_root():
                return None
            if self.buffer.full:
                self._next_span_id += 1
                self._next_trace_id += 1
                self.buffer.dropped += 1
                return None
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        ts = self.now()
        span = Span(
            span_id=self._next_span_id,
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            start=ts,
            end=ts,
            status="ok",
            attrs=attrs,
        )
        self._next_span_id += 1
        self.buffer.append(span)
        return span

    @property
    def open_span_count(self) -> int:
        """Open spans, including unsampled placeholders (must be 0 at rest)."""
        return len(self._stack)

    # ------------------------------------------------------------------
    # App-level conveniences (one call site per request keeps apps tidy)
    # ------------------------------------------------------------------

    def record_request(self, app: str, elapsed: float, status: str = "ok") -> None:
        key = (app, status)
        pair = self._request_metrics.get(key)
        if pair is None:
            pair = (
                self.registry.counter(
                    "app_requests_total", app=app, status=status
                ),
                self.registry.histogram(
                    "app_request_latency_seconds", app=app
                ),
            )
            self._request_metrics[key] = pair
        pair[0].increment()
        pair[1].observe(elapsed)

    def record_requests(
        self, app: str, elapsed: float, statuses: "list[str]"
    ) -> None:
        """Batched :meth:`record_request`: every request shares ``elapsed``.

        One counter bump and one histogram update per *distinct* status
        (the common pipeline is all-``"ok"``, so usually one of each)
        replaces a full call per request; the recorded metrics are
        bit-identical to the per-request loop.
        """
        if not statuses:
            return
        counts: "dict[str, int]" = {}
        for status in statuses:
            counts[status] = counts.get(status, 0) + 1
        for status, count in counts.items():
            self.record_request_batch(app, elapsed, status, count)

    def record_request_batch(
        self, app: str, elapsed: float, status: str, count: int
    ) -> None:
        """Uniform-status :meth:`record_requests` without building a list.

        The steady-state pipeline is all-``"ok"``; callers that already
        know the batch is uniform skip the per-request status list and the
        grouping pass entirely. Metric values are bit-identical to the
        per-request loop (``count`` repeated additions of ``elapsed``).
        """
        if count <= 0:
            return
        key = (app, status)
        pair = self._request_metrics.get(key)
        if pair is None:
            pair = (
                self.registry.counter(
                    "app_requests_total", app=app, status=status
                ),
                self.registry.histogram(
                    "app_request_latency_seconds", app=app
                ),
            )
            self._request_metrics[key] = pair
        pair[0].increment(count)
        pair[1].observe_many(elapsed, count)

    def record_batch(self, app: str, size: int) -> None:
        pair = self._batch_metrics.get(app)
        if pair is None:
            pair = (
                self.registry.counter("app_batches_total", app=app),
                self.registry.histogram("app_batch_size", app=app),
            )
            self._batch_metrics[app] = pair
        pair[0].increment()
        pair[1].observe(size)

    def record_pipeline(
        self, app: str, size: int, elapsed: float, count: int
    ) -> None:
        """Fused :meth:`record_batch` + all-``"ok"`` request accounting.

        The pipelined steady state records the same four metric updates
        every batch; fusing them into one call with one cached handle
        tuple halves the per-batch call and dict-probe count on the hot
        path the <=1.05x overhead gate measures. Metric values are
        bit-identical to ``record_batch(app, size)`` followed by
        ``record_request_batch(app, elapsed, "ok", count)``.
        """
        handles = self._pipeline_metrics.get(app)
        if handles is None:
            handles = (
                self.registry.counter("app_batches_total", app=app),
                self.registry.histogram("app_batch_size", app=app),
                self.registry.counter(
                    "app_requests_total", app=app, status="ok"
                ),
                self.registry.histogram(
                    "app_request_latency_seconds", app=app
                ),
            )
            self._pipeline_metrics[app] = handles
        batches, sizes, requests, latency = handles
        # Inlined Counter.increment / BucketHistogram.observe[_many]: four
        # method frames per batch are measurable against the 1.05x budget.
        # The updates are field-for-field identical to the method bodies,
        # including the repeated addition in observe_many (bit-identical
        # to ``count`` single observations).
        batches._value += 1
        size = float(size)
        sizes._bucket_counts[bisect_left(sizes.buckets, size)] += 1
        sizes._sum += size
        sizes._count += 1
        if count > 0:
            requests._value += count
            elapsed = float(elapsed)
            latency._bucket_counts[bisect_left(latency.buckets, elapsed)] += count
            total = latency._sum
            for _ in range(count):
                total += elapsed
            latency._sum = total
            latency._count += count
