"""The hub's span store: saturation, a soak at its default capacity, and a
differential test against the object store it replaced.

:class:`~repro.obs.spans.SpanBuffer` keeps finished spans as rows of flat
columns and builds :class:`~repro.obs.spans.Span` objects only when they
are read. These tests hold it to three things: a saturated hub advances
ids and ``dropped`` exactly as if every span had been built and dropped;
a default hub pushed past its 100,000-span capacity retains a bounded,
small amount of memory and stops growing; and on random
start/end/event/set_attrs/clear sequences every read — spans, length,
drops, JSONL export, queries and tree checks — agrees with a plain list
of ``Span`` objects.
"""

from __future__ import annotations

import tracemalloc
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DROPPED, ObsError, Observability, Span, SpanBuffer, spans_to_jsonl
from repro.sim.clock import VirtualClock


def _next_span_id(obs: Observability) -> int:
    """The id the hub hands out next, read through a throwaway root span."""
    obs.buffer.clear()
    probe = obs.start_span("probe")
    obs.end_span(probe)
    return probe.span_id


class TestSaturation:
    @pytest.mark.parametrize("event_inside", [True, False])
    def test_event_under_dropped_parent_counts_as_a_drop(self, event_inside):
        """An event is accounted the same under a dropped parent as at the
        root of a saturated hub: one id and one ``dropped`` each."""
        obs = Observability(span_capacity=1)
        obs.end_span(obs.start_span("a"))
        b = obs.start_span("b")
        assert b is DROPPED
        if event_inside:
            assert obs.event("e") is None
            obs.end_span(b)
        else:
            obs.end_span(b)
            assert obs.event("e") is None
        assert obs.buffer.dropped == 2
        assert _next_span_id(obs) == 4

    def test_saturated_hub_keeps_the_first_spans(self):
        obs = Observability(span_capacity=3)
        for i in range(4):
            outer = obs.start_span("request", client=f"c{i}")
            obs.event("fault", udi=i)
            obs.end_span(outer)
        assert [(s.name, s.span_id) for s in obs.buffer] == [
            ("fault", 2), ("request", 1), ("fault", 4),
        ]
        assert obs.buffer.dropped == 5
        assert obs.buffer.tree_violations() == []


# ----------------------------------------------------------------------
# Soak: the hub's span store at its 100,000-span default
# ----------------------------------------------------------------------

SOAK_REQUESTS = 75_000  # two spans each: 150,000 spans through the hub
KEPT_BUDGET = 6 * 1024 * 1024  # bytes for 100,000 retained spans
SATURATED_BUDGET = 64 * 1024  # bytes the last 50,000 spans may add


def _fleet_request(obs: Observability, clock: VirtualClock, i: int) -> None:
    """One request shaped like ``fleet_zipf``'s: a client-tagged request
    span around a domain execution tagged with its udi."""
    request = obs.start_span("memcached.request", client=f"c{i % 64}")
    clock.advance(1e-6)
    execute = obs.start_span("domain.execute", udi=1 + i % 8)
    clock.advance(2e-6)
    obs.end_span(execute)
    obs.end_span(request)


def test_default_hub_span_store_reaches_its_bound():
    clock = VirtualClock()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        obs = Observability(clock=clock)
        for i in range(50_000):
            _fleet_request(obs, clock, i)
        full, _ = tracemalloc.get_traced_memory()
        for i in range(50_000, SOAK_REQUESTS):
            _fleet_request(obs, clock, i)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert obs.buffer.capacity == 100_000
    assert len(obs.buffer) == 100_000
    assert obs.buffer.dropped == 50_000
    assert obs.open_span_count == 0
    assert full - before < KEPT_BUDGET, f"100k spans retain {full - before} bytes"
    assert after - full < SATURATED_BUDGET, (
        f"the last 50k spans added {after - full} bytes"
    )
    assert obs.buffer.count("domain.execute") == 50_000
    assert obs.buffer.tree_violations() == []


# ----------------------------------------------------------------------
# Differential oracle: columns against a list of Span objects
# ----------------------------------------------------------------------


class _ListStore:
    """Reference store: the retained-object buffer the columns replaced."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.spans: "list[Span]" = []
        self.dropped = 0

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.spans) >= self.capacity

    def append(self, span: Span) -> None:
        if self.full:
            self.dropped += 1
            return
        span.attrs = MappingProxyType(dict(span.attrs))
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(list(self.spans))

    def clear(self) -> None:
        self.spans = []
        self.dropped = 0

    def of_name(self, *names):
        return [s for s in self.spans if s.name in names]

    def count(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def roots(self):
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span):
        return [s for s in self.spans if s.parent_id == span.span_id]

    def tree_violations(self):
        problems = []
        by_id = {s.span_id: s for s in self.spans}
        for span in self.spans:
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
                parent.end is not None and span.end > parent.end
            ):
                problems.append(
                    f"span #{span.span_id} {span.name!r} is not contained in "
                    f"its parent #{parent.span_id} {parent.name!r}"
                )
        return problems


_NAMES = st.sampled_from(["request", "domain.execute", "domain.rewind", "fault"])
_STATUSES = st.sampled_from(["ok", "error", "fault"])
_ATTRS = st.dictionaries(
    st.sampled_from(["client", "udi", "size"]),
    st.one_of(st.integers(0, 3), st.booleans(), st.sampled_from(["c0", "c1"]),
              st.just([1, 2])),
    max_size=2,
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("start"), _NAMES, _ATTRS),
        st.tuples(st.just("end"), _STATUSES, _ATTRS),
        st.tuples(st.just("event"), _NAMES, _ATTRS),
        st.tuples(st.just("set_attrs"), st.integers(0, 7), _ATTRS),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-6, 2.5e-6])),
        # A hand-built span straight into the store: open, inverted, orphaned
        # or mis-traced rows the hub itself never produces.
        st.tuples(
            st.just("append"),
            st.integers(1, 5),
            st.integers(1, 2),
            st.one_of(st.none(), st.integers(1, 5)),
            _NAMES,
            st.sampled_from([0.0, 1e-6, 3e-6]),
            st.sampled_from([None, 0.0, 2e-6, 5e-6]),
            _STATUSES,
            _ATTRS,
        ),
        st.just(("clear",)),
    ),
    min_size=8,
    max_size=60,
)


def _apply(obs: Observability, clock: VirtualClock, handles: list, op):
    """Run one op; returns what a caller could observe from it.

    ``handles`` holds every span started so far, in order, with a flag
    telling whether it is still open."""
    kind = op[0]
    if kind == "start":
        span = obs.start_span(op[1], **op[2])
        handles.append([span, True])
        return ("start", span.as_dict() if isinstance(span, Span) else repr(span))
    if kind == "end":
        still_open = [h for h in handles if h[1]]
        if not still_open:
            return ("end", None)
        still_open[-1][1] = False
        top = still_open[-1][0]
        obs.end_span(top, status=op[1], **op[2])
        return ("end", top.as_dict() if isinstance(top, Span) else repr(top))
    if kind == "event":
        event = obs.event(op[1], **op[2])
        return ("event", None if event is None else event.as_dict())
    if kind == "set_attrs":
        if not handles:
            return ("set_attrs", None)
        span = handles[op[1] % len(handles)][0]
        try:
            span.set_attrs(**op[2])
        except ObsError as exc:
            return ("set_attrs", str(exc))
        return ("set_attrs", span.as_dict() if isinstance(span, Span) else None)
    if kind == "advance":
        clock.advance(op[1])
        return ("advance", clock.now)
    if kind == "append":
        _, span_id, trace_id, parent_id, name, start, end, status, attrs = op
        status = "open" if end is None else status
        obs.buffer.append(
            Span(span_id, trace_id, parent_id, name, start, end, status, dict(attrs))
        )
        return ("append", len(obs.buffer))
    obs.buffer.clear()
    return ("clear",)


def _reads(store) -> tuple:
    spans = list(store)
    return (
        [s.as_dict() for s in spans],
        len(store),
        store.dropped,
        spans_to_jsonl(store),
        [s.as_dict() for s in store.of_name("request", "fault")],
        store.count("domain.execute"),
        [s.as_dict() for s in store.roots()],
        [[c.as_dict() for c in store.children_of(s)] for s in spans],
        store.tree_violations(),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    capacity=st.sampled_from([1, 2, 3, 4, 5, None]),
    sampling=st.sampled_from([1.0, 0.5]),
    ops=_OPS,
)
def test_columnar_store_matches_span_list(capacity, sampling, ops):
    sides = []
    for store in (SpanBuffer(capacity=capacity), _ListStore(capacity)):
        clock = VirtualClock()
        obs = Observability(clock=clock, sampling=sampling, span_capacity=capacity)
        obs.buffer = store
        sides.append((obs, clock, []))
    (columns, c_clock, c_handles), (reference, r_clock, r_handles) = sides
    for op in ops:
        assert _apply(columns, c_clock, c_handles, op) == _apply(
            reference, r_clock, r_handles, op
        ), op
        assert _reads(columns.buffer) == _reads(reference.buffer), op
    assert columns.buffer.spans == reference.buffer.spans
