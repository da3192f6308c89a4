"""Tracing spans: lightweight, parent-linked, virtual-time-stamped.

A :class:`Span` covers one operation on the trusted side of the runtime —
a domain execution, a request through an app server, a batch pipeline —
with its virtual start/end timestamps, a status, and free-form attributes.
Spans form trees through ``parent_id`` links maintained by the
:class:`~repro.obs.hub.Observability` hub's span stack, so one request's
span contains the domain execution it triggered, which in turn contains
the fault and rewind events the execution produced.

Design constraints (why this is not OpenTelemetry):

* **virtual time** — timestamps come from the simulation's
  :class:`~repro.sim.clock.VirtualClock`, never the wall clock, so traces
  are deterministic and byte-stable (the exporter golden tests depend on
  this);
* **sequential ids** — span/trace ids are small integers from a counter,
  not random 128-bit ids, for the same reason;
* **single-threaded** — the simulator is single-threaded, so one open-span
  stack per hub is sufficient for parent linking.

Hot-path layout (DESIGN.md §9): span names and statuses are *interned* to
small integer codes at record time and materialised back to strings only
when someone reads ``span.name``/``span.status`` — at export or snapshot
time, never per request. A bounded :class:`SpanBuffer` preallocates its
slot array once, so steady-state appends are one index store with no list
growth, and a saturated buffer costs one counter bump per drop.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Optional

from ..errors import SdradError


class ObsError(SdradError):
    """Misuse of the observability layer (e.g. mis-nested span ends)."""


# ----------------------------------------------------------------------
# Label interning: strings in, integer codes stored, strings back out
# only when somebody looks. The tables are process-global on purpose —
# span names are a tiny closed vocabulary ("domain.execute",
# "memcached.request", ...), so codes stay small and hubs share them.
# ----------------------------------------------------------------------

_LABEL_CODES: dict = {}
_LABELS: list = []


def _intern(label: str) -> int:
    code = _LABEL_CODES.get(label)
    if code is None:
        code = len(_LABELS)
        _LABEL_CODES[label] = code
        _LABELS.append(label)
    return code


class Span:
    """One finished-or-open span. Mutable until ended; a buffered span's
    ``attrs`` is a read-only mapping, possibly shared (:class:`SpanBuffer`).

    ``name`` and ``status`` are stored as interned integer codes
    (:func:`_intern`); the string properties resolve lazily, so the hot
    path never rebuilds label strings and the exporters see exactly the
    strings that went in.
    """

    __slots__ = (
        "span_id",
        "trace_id",
        "parent_id",
        "_name_code",
        "start",
        "end",
        "_status_code",
        "attrs",
    )

    sampled = True

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        end: Optional[float] = None,
        status: str = "open",
        attrs: Optional[dict] = None,
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self._name_code = _intern(name)
        self.start = start
        self.end = end
        self._status_code = _intern(status)
        self.attrs = {} if attrs is None else attrs

    @property
    def name(self) -> str:
        return _LABELS[self._name_code]

    @property
    def status(self) -> str:
        return _LABELS[self._status_code]

    @status.setter
    def status(self, value: str) -> None:
        self._status_code = _intern(value)

    @property
    def duration(self) -> float:
        """Virtual seconds covered; 0.0 while still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_attrs(self, **attrs: object) -> None:
        """Annotate mid-flight (uniform with the unsampled placeholder)."""
        if self.end is not None:
            raise ObsError(f"span #{self.span_id} has ended; its attrs are read-only")
        self.attrs.update(attrs)

    @property
    def is_open(self) -> bool:
        return self.end is None

    def as_dict(self) -> dict:
        """JSON-friendly representation (the JSONL exporter's row).

        This is where labels materialise: the integer codes resolve back
        to the exact strings recorded, keeping exporter output identical
        to the pre-interning format.
        """
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": _LABELS[self._name_code],
            "start": self.start,
            "end": self.end,
            "status": _LABELS[self._status_code],
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            span_id=data["span_id"],
            trace_id=data["trace_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            start=data["start"],
            end=data["end"],
            status=data["status"],
            attrs=dict(data["attrs"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(span_id={self.span_id}, trace_id={self.trace_id}, "
            f"parent_id={self.parent_id}, name={self.name!r}, "
            f"start={self.start}, end={self.end}, status={self.status!r}, "
            f"attrs={self.attrs!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return (
            f"[{self.start:.9f}..{self.end if self.end is not None else '?'}] "
            f"{self.name} #{self.span_id}<-{self.parent_id} "
            f"{self.status} {attrs}".rstrip()
        )


class SpanBuffer:
    """Per-run buffer of *finished* spans, bounded by ``capacity``.

    A bounded buffer preallocates its slot array once (the ring the obs
    hot path writes into) and appends with a single index store; when
    full, further spans are counted in :attr:`dropped` instead of stored —
    a long benchmark run must not grow memory without bound just because
    tracing is on, and the hub stops even *constructing* spans once
    :attr:`full` goes true (see ``Observability.start_span``). Drop order
    is oldest-kept/newest-dropped so early-run context survives.

    Every stored span's ``attrs`` becomes a read-only mapping shared by
    all stored spans with the same items (same keys, order, value types
    and values), so the many spans that repeat an attribute set hold one
    dict between them. The table of shared mappings holds at most
    :attr:`SHARED_ATTRS_BOUND` entries and is cleared when full; a span
    with an unhashable value keeps its own dict, wrapped read-only.
    """

    SHARED_ATTRS_BOUND = 4096

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ObsError(f"span buffer capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        # Preallocated ring storage for the bounded case; a plain growable
        # list when unbounded (tests, small tools).
        self._slots: "list[Optional[Span]]" = (
            [None] * capacity if capacity is not None else []
        )
        self._count = 0
        self.dropped = 0
        self._shared_attrs: dict = {}

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def full(self) -> bool:
        """True when the next append would drop (the hub's saturation test)."""
        return self._capacity is not None and self._count >= self._capacity

    def append(self, span: Span) -> None:
        i = self._count
        if self._capacity is None:
            self._slots.append(span)
        elif i >= self._capacity:
            self.dropped += 1
            return
        else:
            self._slots[i] = span
        self._count = i + 1
        attrs = span.attrs
        key = (tuple(attrs.items()), tuple(map(type, attrs.values())))
        shared = self._shared_attrs
        try:
            span.attrs = shared[key]
        except KeyError:
            if len(shared) >= self.SHARED_ATTRS_BOUND:
                shared.clear()
            span.attrs = shared[key] = MappingProxyType(attrs)
        except TypeError:  # an unhashable value
            span.attrs = MappingProxyType(attrs)

    @property
    def spans(self) -> "list[Span]":
        return self._slots[: self._count]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Span]:
        return iter(self._slots[: self._count])

    def clear(self) -> None:
        if self._capacity is None:
            self._slots.clear()
        else:
            self._slots = [None] * self._capacity
        self._count = 0
        self.dropped = 0
        self._shared_attrs.clear()

    # ------------------------------------------------------------------
    # Tree queries (tests and reports)
    # ------------------------------------------------------------------

    def of_name(self, *names: str) -> "list[Span]":
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def roots(self) -> "list[Span]":
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> "list[Span]":
        return [s for s in self.spans if s.parent_id == span.span_id]

    def tree_violations(self) -> "list[str]":
        """Structural invariants of the buffered span forest.

        Returns human-readable problems; an empty list means every span is
        closed, every parent link resolves to a span in the buffer (or to
        one that was dropped — flagged only when nothing was dropped), and
        every child lies within its parent's interval.
        """
        problems: "list[str]" = []
        spans = self.spans
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.is_open:
                problems.append(f"span #{span.span_id} {span.name!r} never ended")
                continue
            if span.end < span.start:
                problems.append(
                    f"span #{span.span_id} {span.name!r} ends before it starts"
                )
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                if self.dropped == 0:
                    problems.append(
                        f"span #{span.span_id} {span.name!r} has unknown "
                        f"parent #{span.parent_id}"
                    )
                continue
            if parent.trace_id != span.trace_id:
                problems.append(
                    f"span #{span.span_id} is in trace {span.trace_id} but its "
                    f"parent #{parent.span_id} is in trace {parent.trace_id}"
                )
            if span.start < parent.start or (
                parent.end is not None and span.end is not None
                and span.end > parent.end
            ):
                problems.append(
                    f"span #{span.span_id} {span.name!r} is not contained in "
                    f"its parent #{parent.span_id} {parent.name!r}"
                )
        return problems
