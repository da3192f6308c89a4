"""Tests for tracing spans, the span buffer, and the observability hub."""

from __future__ import annotations

import json

import pytest

from repro.obs import ObsError, Observability, Span, SpanBuffer, UNSAMPLED, spans_to_jsonl
from repro.sim.clock import VirtualClock


def make_span(span_id=1, trace_id=1, parent_id=None, name="op",
              start=0.0, end=1.0, status="ok", **attrs):
    return Span(
        span_id=span_id, trace_id=trace_id, parent_id=parent_id,
        name=name, start=start, end=end, status=status, attrs=attrs,
    )


class TestSpan:
    def test_duration_and_open(self):
        span = make_span(start=1.0, end=3.5)
        assert span.duration == pytest.approx(2.5)
        assert not span.is_open
        open_span = make_span(end=None, status="open")
        assert open_span.is_open
        assert open_span.duration == 0.0

    def test_set_attrs_merges(self):
        span = make_span(end=None, status="open", a=1)
        span.set_attrs(b=2, a=3)
        assert span.attrs == {"a": 3, "b": 2}

    def test_dict_round_trip(self):
        span = make_span(span_id=7, trace_id=2, parent_id=3, cause="canary")
        again = Span.from_dict(span.as_dict())
        assert again.as_dict() == span.as_dict()
        assert again is not span

    def test_sampled_flag(self):
        assert make_span().sampled is True
        assert UNSAMPLED.sampled is False
        UNSAMPLED.set_attrs(ignored=True)  # accepted, discarded


class TestSharedAttrs:
    """Buffered spans hold read-only attrs, shared between equal sets."""

    def test_equal_attrs_share_one_read_only_mapping(self):
        obs = Observability()
        first = obs.event("domain.fault", mechanism="stack-canary", udi=1)
        second = obs.event("domain.fault", mechanism="stack-canary", udi=1)
        assert first.attrs is second.attrs
        assert first.attrs == {"mechanism": "stack-canary", "udi": 1}
        with pytest.raises(TypeError):
            first.attrs["udi"] = 2  # type: ignore[index]

    def test_equal_values_of_different_types_are_not_shared(self):
        obs = Observability()
        as_int = obs.event("e", size=1)
        as_bool = obs.event("e", size=True)
        assert as_int.attrs is not as_bool.attrs
        assert as_bool.attrs["size"] is True
        assert spans_to_jsonl(obs.buffer).splitlines()[1].startswith('{"attrs":{"size":true},')

    def test_open_span_stays_mutable(self):
        obs = Observability()
        span = obs.start_span("request", client="c0")
        span.set_attrs(retries=1)
        obs.end_span(span, status="ok", size=3)
        assert span.attrs == {"client": "c0", "retries": 1, "size": 3}

    def test_set_attrs_on_ended_span_raises(self):
        obs = Observability()
        span = obs.start_span("request", client="c0")
        obs.end_span(span)
        twin = obs.start_span("request", client="c0")
        obs.end_span(twin)
        with pytest.raises(ObsError, match=f"#{span.span_id} "):
            span.set_attrs(client="c1")
        assert twin.attrs == {"client": "c0"}

    def test_set_attrs_on_open_span_in_a_buffer_raises(self):
        buf = SpanBuffer()
        span = Span(1, 1, None, "x", 0.0)
        buf.append(span)
        with pytest.raises(ObsError, match="#1 "):
            span.set_attrs(a=1)
        assert [dict(s.attrs) for s in buf] == [{}]

    def test_table_never_exceeds_its_bound(self):
        buf = SpanBuffer()
        bound = SpanBuffer.SHARED_ATTRS_BOUND
        peak = 0
        for i in range(2 * bound + 10):
            buf.append(make_span(span_id=i + 1, n=i))
            peak = max(peak, len(buf._shared_attrs))
        assert peak == bound
        assert [dict(s.attrs) for s in buf] == [{"n": i} for i in range(2 * bound + 10)]
        buf.clear()
        assert buf._shared_attrs == {}

    def test_list_valued_event_is_recorded_and_exported(self):
        obs = Observability()
        event = obs.event("fleet.multiget", keys=["a", "b"], shard=2)
        twin = obs.event("fleet.multiget", keys=["a", "b"], shard=2)
        assert event.attrs == {"keys": ["a", "b"], "shard": 2}
        assert event.attrs is not twin.attrs
        with pytest.raises(TypeError):
            event.attrs["shard"] = 3  # type: ignore[index]
        rows = [json.loads(line) for line in spans_to_jsonl(obs.buffer).splitlines()]
        assert [row["attrs"] for row in rows] == [{"keys": ["a", "b"], "shard": 2}] * 2


class TestSpanBuffer:
    def test_capacity_drops_excess(self):
        buf = SpanBuffer(capacity=2)
        for i in range(4):
            buf.append(make_span(span_id=i + 1))
        assert len(buf) == 2
        assert buf.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObsError):
            SpanBuffer(capacity=0)

    def test_queries(self):
        buf = SpanBuffer()
        root = make_span(span_id=1, name="request")
        child = make_span(span_id=2, parent_id=1, name="domain.execute",
                          start=0.2, end=0.8)
        buf.append(root)
        buf.append(child)
        assert buf.count("request") == 1
        assert [s.span_id for s in buf.of_name("request", "domain.execute")] == [1, 2]
        assert buf.roots() == [root]
        assert buf.children_of(root) == [child]

    def test_clear_resets_dropped(self):
        buf = SpanBuffer(capacity=1)
        buf.append(make_span())
        buf.append(make_span(span_id=2))
        buf.clear()
        assert len(buf) == 0 and buf.dropped == 0


class TestTreeViolations:
    def test_clean_tree(self):
        buf = SpanBuffer()
        buf.append(make_span(span_id=1, start=0.0, end=1.0))
        buf.append(make_span(span_id=2, parent_id=1, start=0.2, end=0.9))
        assert buf.tree_violations() == []

    def test_open_span_flagged(self):
        buf = SpanBuffer()
        buf.append(make_span(end=None))
        assert any("never ended" in p for p in buf.tree_violations())

    def test_end_before_start(self):
        buf = SpanBuffer()
        buf.append(make_span(start=2.0, end=1.0))
        assert any("ends before" in p for p in buf.tree_violations())

    def test_unknown_parent_only_without_drops(self):
        buf = SpanBuffer()
        buf.append(make_span(span_id=5, parent_id=99))
        assert any("unknown parent" in p for p in buf.tree_violations())
        buf.dropped = 1  # parent may be among the dropped spans
        assert buf.tree_violations() == []

    def test_trace_id_mismatch(self):
        buf = SpanBuffer()
        buf.append(make_span(span_id=1, trace_id=1))
        buf.append(make_span(span_id=2, trace_id=2, parent_id=1, start=0.1, end=0.5))
        assert any("trace" in p for p in buf.tree_violations())

    def test_child_outside_parent_interval(self):
        buf = SpanBuffer()
        buf.append(make_span(span_id=1, start=0.0, end=1.0))
        buf.append(make_span(span_id=2, parent_id=1, start=0.5, end=1.5))
        assert any("not contained" in p for p in buf.tree_violations())


class TestHubSpans:
    def test_nesting_links_parent_and_trace(self):
        clock = VirtualClock()
        obs = Observability(clock=clock)
        outer = obs.start_span("request", client="c0")
        clock.advance(1e-3)
        inner = obs.start_span("domain.execute")
        clock.advance(1e-3)
        obs.end_span(inner)
        obs.end_span(outer, status="ok", retries=0)
        spans = obs.buffer.spans
        assert [s.name for s in spans] == ["domain.execute", "request"]
        assert spans[0].parent_id == spans[1].span_id
        assert spans[0].trace_id == spans[1].trace_id
        assert spans[1].attrs == {"client": "c0", "retries": 0}
        assert obs.buffer.tree_violations() == []
        assert obs.open_span_count == 0

    def test_sibling_roots_get_fresh_traces(self):
        obs = Observability()
        a = obs.start_span("a")
        obs.end_span(a)
        b = obs.start_span("b")
        obs.end_span(b)
        assert a.trace_id != b.trace_id

    def test_mis_nested_end_raises_and_preserves_stack(self):
        obs = Observability()
        outer = obs.start_span("outer")
        inner = obs.start_span("inner")
        with pytest.raises(ObsError):
            obs.end_span(outer)
        # The stack survived the error: proper order still works.
        obs.end_span(inner)
        obs.end_span(outer)
        assert obs.open_span_count == 0

    def test_end_with_no_open_span(self):
        obs = Observability()
        with pytest.raises(ObsError):
            obs.end_span(UNSAMPLED)

    def test_context_manager_marks_errors(self):
        obs = Observability()
        with pytest.raises(RuntimeError):
            with obs.span("work"):
                raise RuntimeError("boom")
        assert obs.buffer.spans[0].status == "error"
        assert obs.open_span_count == 0

    def test_event_is_zero_duration_child(self):
        clock = VirtualClock()
        obs = Observability(clock=clock)
        parent = obs.start_span("execute")
        clock.advance(5e-6)
        event = obs.event("domain.rewind", cause="stack-canary", duration=3.5e-6)
        obs.end_span(parent)
        assert event.start == event.end == pytest.approx(5e-6)
        assert event.parent_id == parent.span_id
        assert event.attrs["cause"] == "stack-canary"

    def test_bind_clock_keeps_explicit_clock(self):
        explicit = VirtualClock()
        obs = Observability(clock=explicit)
        obs.bind_clock(VirtualClock())
        assert obs.clock is explicit
        late = Observability()
        adopted = VirtualClock()
        late.bind_clock(adopted)
        assert late.clock is adopted


class TestSampling:
    def test_quarter_sampling_keeps_every_fourth_trace(self):
        obs = Observability(sampling=0.25)
        kept = 0
        for _ in range(16):
            span = obs.start_span("request")
            obs.end_span(span)
            kept += span.sampled
        assert kept == 4
        assert len(obs.buffer) == 4

    def test_zero_sampling_records_no_spans(self):
        obs = Observability(sampling=0.0)
        for _ in range(5):
            span = obs.start_span("request")
            assert span is UNSAMPLED
            assert obs.event("inner") is None
            obs.end_span(span)
        assert len(obs.buffer) == 0
        assert obs.open_span_count == 0

    def test_children_inherit_sampling_decision(self):
        obs = Observability(sampling=0.5)
        first = obs.start_span("request")       # accumulator 0.5: dropped
        child = obs.start_span("domain.execute")
        assert first is UNSAMPLED and child is UNSAMPLED
        obs.end_span(child)
        obs.end_span(first)
        second = obs.start_span("request")      # accumulator 1.0: kept
        assert second.sampled
        obs.end_span(second)

    def test_metrics_exempt_from_sampling(self):
        obs = Observability(sampling=0.0)
        for _ in range(3):
            obs.record_request("memcached", 1e-5)
        assert obs.registry.counter_total("app_requests_total") == 3
        hist = obs.registry.histogram("app_request_latency_seconds", app="memcached")
        assert hist.count == 3

    def test_sampling_out_of_range(self):
        with pytest.raises(ObsError):
            Observability(sampling=1.5)


class TestConveniences:
    def test_record_request_counts_by_status(self):
        obs = Observability()
        obs.record_request("nginx", 2e-5, status="ok")
        obs.record_request("nginx", 3e-5, status="fault")
        assert obs.registry.counter_total("app_requests_total", app="nginx") == 2
        assert obs.registry.counter_total(
            "app_requests_total", app="nginx", status="fault"
        ) == 1

    def test_record_batch(self):
        obs = Observability()
        obs.record_batch("memcached", 16)
        assert obs.registry.counter_total("app_batches_total") == 1
        hist = obs.registry.histogram("app_batch_size", app="memcached")
        assert hist.count == 1 and hist.sum == 16.0
