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

Storage layout (DESIGN.md §9): span names and statuses are *interned* to
small integer codes at record time and materialised back to strings only
when someone reads ``span.name``/``span.status`` — at export or snapshot
time, never per request. A :class:`SpanBuffer` keeps finished spans as
rows of flat typed columns rather than as :class:`Span` objects, and
builds a :class:`Span` only for a span somebody reads; a saturated buffer
costs one counter bump per drop.
"""

from __future__ import annotations

from array import array
from math import nan
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

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

    @property
    def duration(self) -> float:
        """Virtual seconds covered; 0.0 while still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_attrs(self, **attrs: object) -> None:
        """Annotate mid-flight (uniform with the unsampled placeholder).

        An ended span's attrs are read-only, and so are a buffered span's:
        the buffer may share its attrs mapping with other rows.
        """
        if self.end is not None or isinstance(self.attrs, MappingProxyType):
            raise ObsError(
                f"span #{self.span_id} has ended or is buffered; its attrs are read-only"
            )
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

    def _fields(self) -> tuple:
        return (
            self.span_id, self.trace_id, self.parent_id, self._name_code,
            self.start, self.end, self._status_code, self.attrs,
        )

    def __eq__(self, other: object) -> bool:
        """Value equality: a span read back from a buffer equals the one
        appended (attrs compare by items, dict or read-only mapping)."""
        if not isinstance(other, Span):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]  # mutable until ended

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
    """Per-run store of *finished* spans, bounded by ``capacity``.

    Spans are stored as rows of flat columns, not as objects: typed
    :class:`array.array` columns hold the span, trace and parent ids, the
    interned name and status codes, and the start and end timestamps, and
    one list holds each row's attrs mapping. A retained row costs ~58
    bytes (``tracemalloc``, 100k fleet-shaped spans), where a retained
    :class:`Span` with its boxed ids and timestamps cost ~177.
    :class:`Span` objects are built only when something reads them —
    :attr:`spans`, iteration, the exporters, the queries' results — and a
    built span equals the one that was appended.

    When the store holds ``capacity`` rows, further spans are counted in
    :attr:`dropped` instead of stored (drop-newest, so early-run context
    survives): a long benchmark run must not grow memory without bound
    just because tracing is on, and the hub stops even *constructing*
    spans once :attr:`full` (kept current by :meth:`append` and
    :meth:`clear`) goes true (see ``Observability.start_span``).
    The columns grow by appending, so a store that records ten spans holds
    ten rows whatever its capacity.

    Every stored row's attrs is a read-only mapping shared by all stored
    rows with the same items (same keys, order, value types and values),
    so the many spans that repeat an attribute set hold one dict between
    them. The table of shared mappings holds at most
    :attr:`SHARED_ATTRS_BOUND` entries and is cleared when full; a span
    with an unhashable value keeps its own dict, wrapped read-only.

    Ids are non-negative integers (the hub counts from 1); a root's
    missing parent is stored as -1 and an open span's missing end as NaN.
    """

    SHARED_ATTRS_BOUND = 4096

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ObsError(f"span buffer capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self.dropped = 0
        self._shared_attrs: dict = {}
        self._new_columns()

    def _new_columns(self) -> None:
        #: True when the next append would drop (the hub's saturation test).
        self.full = False
        self._span_ids = array("q")
        self._trace_ids = array("q")
        self._parent_ids = array("q")
        self._name_codes = array("I")
        self._status_codes = array("I")
        self._starts = array("d")
        self._ends = array("d")
        self._attrs: list = []

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def append(self, span: Span) -> None:
        """Store ``span`` as one row; its ``attrs`` become the row's mapping."""
        if self.full:
            self.dropped += 1
            return
        attrs = span.attrs
        # n items then n value types: equal items, order and value types.
        key = (*attrs.items(), *map(type, attrs.values()))
        shared = self._shared_attrs
        try:
            attrs = shared[key]
        except KeyError:
            if len(shared) >= self.SHARED_ATTRS_BOUND:
                shared.clear()
            attrs = shared[key] = MappingProxyType(attrs)
        except TypeError:  # an unhashable value
            attrs = MappingProxyType(attrs)
        span.attrs = attrs
        parent_id = span.parent_id
        end = span.end
        self._span_ids.append(span.span_id)
        self._trace_ids.append(span.trace_id)
        self._parent_ids.append(-1 if parent_id is None else parent_id)
        self._name_codes.append(span._name_code)
        self._status_codes.append(span._status_code)
        self._starts.append(span.start)
        self._ends.append(nan if end is None else end)
        rows = self._attrs
        rows.append(attrs)
        if len(rows) == self._capacity:
            self.full = True

    def _build(self, i: int) -> Span:
        """Materialise row ``i`` as a :class:`Span` equal to the one appended."""
        span = Span.__new__(Span)
        span.span_id = self._span_ids[i]
        span.trace_id = self._trace_ids[i]
        parent_id = self._parent_ids[i]
        span.parent_id = None if parent_id < 0 else parent_id
        span._name_code = self._name_codes[i]
        span.start = self._starts[i]
        end = self._ends[i]
        span.end = None if end != end else end  # NaN: still open
        span._status_code = self._status_codes[i]
        span.attrs = self._attrs[i]
        return span

    def _build_where(self, column: "Iterable[int]", wanted: object) -> "list[Span]":
        """The spans whose ``column`` value is in ``wanted``, in store order."""
        build = self._build
        return [build(i) for i, value in enumerate(column) if value in wanted]

    @property
    def spans(self) -> "list[Span]":
        return list(self)

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[Span]:
        build = self._build
        return (build(i) for i in range(len(self._attrs)))

    def clear(self) -> None:
        self._new_columns()
        self.dropped = 0
        self._shared_attrs.clear()

    # ------------------------------------------------------------------
    # Queries (tests and reports): scan the columns, build only the hits
    # ------------------------------------------------------------------

    def of_name(self, *names: str) -> "list[Span]":
        codes = {_LABEL_CODES[n] for n in names if n in _LABEL_CODES}
        return self._build_where(self._name_codes, codes)

    def count(self, name: str) -> int:
        code = _LABEL_CODES.get(name)
        return 0 if code is None else self._name_codes.count(code)

    def roots(self) -> "list[Span]":
        return self._build_where(self._parent_ids, (-1,))

    def children_of(self, span: Span) -> "list[Span]":
        return self._build_where(self._parent_ids, (span.span_id,))

    def tree_violations(self) -> "list[str]":
        """Structural invariants of the buffered span forest.

        Returns human-readable problems; an empty list means every span is
        closed, every parent link resolves to a span in the buffer (or to
        one that was dropped — flagged only when nothing was dropped), and
        every child lies within its parent's interval.
        """
        problems: "list[str]" = []
        ids = self._span_ids
        traces = self._trace_ids
        starts = self._starts
        ends = self._ends
        names = self._name_codes
        row_of = {span_id: i for i, span_id in enumerate(ids)}
        for i, parent_id in enumerate(self._parent_ids):
            span_id = ids[i]
            start = starts[i]
            end = ends[i]
            if end != end:
                problems.append(
                    f"span #{span_id} {_LABELS[names[i]]!r} never ended"
                )
                continue
            if end < start:
                problems.append(
                    f"span #{span_id} {_LABELS[names[i]]!r} ends before it starts"
                )
            if parent_id < 0:
                continue
            p = row_of.get(parent_id)
            if p is None:
                if self.dropped == 0:
                    problems.append(
                        f"span #{span_id} {_LABELS[names[i]]!r} has unknown "
                        f"parent #{parent_id}"
                    )
                continue
            if traces[p] != traces[i]:
                problems.append(
                    f"span #{span_id} is in trace {traces[i]} but its "
                    f"parent #{parent_id} is in trace {traces[p]}"
                )
            # An open parent's end is NaN, and ``end > nan`` is False.
            if start < starts[p] or end > ends[p]:
                problems.append(
                    f"span #{span_id} {_LABELS[names[i]]!r} is not contained in "
                    f"its parent #{parent_id} {_LABELS[names[p]]!r}"
                )
        return problems
