"""Tests for the trace store."""

from __future__ import annotations

import pytest

from repro.telemetry import Span, Trace, TraceStore, render_trace


def make_trace(trace_id="t1", error_leaf=False):
    spans = [
        Span(trace_id, f"{trace_id}-root", None, "submission", "receive", 0.0, 0.1),
        Span(trace_id, f"{trace_id}-route", f"{trace_id}-root", "routing", "categorize", 0.1, 0.2),
        Span(
            trace_id,
            f"{trace_id}-deliver",
            f"{trace_id}-route",
            "delivery",
            "deliver",
            0.3,
            0.5,
            status="error" if error_leaf else "ok",
        ),
    ]
    return spans


class TestTrace:
    def test_root_and_children(self):
        trace = Trace("t1", make_trace())
        assert trace.root.span_id == "t1-root"
        assert len(trace.children(trace.root)) == 1

    def test_children_walk_from_root_reaches_every_span(self):
        trace = Trace("t1", make_trace())
        walk, span = [], trace.root
        while span is not None:
            walk.append(span.span_id)
            children = trace.children(span)
            span = children[0] if children else None
        assert walk == ["t1-root", "t1-route", "t1-deliver"]

    def test_error_span_parent_chain_reaches_the_root(self):
        trace = Trace("t2", make_trace("t2", error_leaf=True))
        by_id = {span.span_id: span for span in trace.spans}
        (span,) = trace.error_spans()
        chain = [span.span_id]
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            chain.append(span.span_id)
        assert chain == ["t2-deliver", "t2-route", "t2-root"]
        assert span is trace.root

    def test_duration(self):
        trace = Trace("t1", make_trace())
        assert trace.duration == 0.8

    def test_error_detection(self):
        clean = Trace("t1", make_trace())
        broken = Trace("t2", make_trace("t2", error_leaf=True))
        assert clean.error_spans() == []
        assert len(broken.error_spans()) == 1

    def test_services(self):
        trace = Trace("t1", make_trace())
        assert trace.services() == ["delivery", "routing", "submission"]

    def test_empty_trace(self):
        trace = Trace("tx", [])
        assert trace.root is None
        assert trace.duration == 0.0

    def test_trace_without_a_parentless_span_has_no_root(self):
        orphans = [s for s in make_trace("t3") if s.parent_id is not None]
        trace = Trace("t3", orphans)
        assert trace.root is None
        assert trace.duration == pytest.approx(0.8 - 0.1)
        assert render_trace(trace).splitlines() == ["trace t3 (700.0 ms)"]


class TestTraceStore:
    def test_add_and_reconstruct(self):
        store = TraceStore()
        store.extend(make_trace())
        assert len(store) == 3
        assert store.trace("t1") is not None
        assert store.trace("missing") is None

    def test_traces_window(self):
        store = TraceStore()
        store.extend(make_trace("t1"))
        late = [
            Span("t2", "t2-root", None, "submission", "receive", 100.0, 0.1),
        ]
        store.extend(late)
        assert len(store.traces(start=50.0)) == 1
        assert len(store.traces()) == 2

    def test_error_traces(self):
        store = TraceStore()
        store.extend(make_trace("t1"))
        store.extend(make_trace("t2", error_leaf=True))
        assert [t.trace_id for t in store.error_traces()] == ["t2"]

    def test_service_latency(self):
        store = TraceStore()
        store.extend(make_trace("t1"))
        mean, p95 = store.service_latency("delivery")
        assert mean == 0.5
        assert p95 == 0.5

    def test_service_latency_missing(self):
        store = TraceStore()
        assert store.service_latency("nope") == (0.0, 0.0)

    def test_error_rate_by_service(self):
        store = TraceStore()
        store.extend(make_trace("t1"))
        store.extend(make_trace("t2", error_leaf=True))
        rates = store.error_rate_by_service()
        assert rates["delivery"] == 0.5
        assert rates["routing"] == 0.0

    def test_slowest_traces(self):
        store = TraceStore()
        store.extend(make_trace("t1"))
        store.add(Span("t2", "t2-root", None, "x", "y", 0.0, 10.0))
        slowest = store.slowest_traces(top=1)
        assert slowest[0].trace_id == "t2"

    def test_render_trace_marks_errors(self):
        trace = Trace("t2", make_trace("t2", error_leaf=True))
        rendered = render_trace(trace)
        assert "!" in rendered
        assert "t2" in rendered
