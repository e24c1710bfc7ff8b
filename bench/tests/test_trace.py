"""Span-tree arithmetic and wrapper hygiene of bench/trace.py."""

import threading

import pytest

from bench.trace import NullTracer, Span, SpanTable, Tracer, covered_seconds


def span(span_id, parent, name, start, end, thread=1, key=None, units=1):
    return Span(span_id, parent, name, float(start), float(end), thread, key, units)


def test_nested_child_is_subtracted_from_the_parent():
    table = SpanTable([span(0, -1, "outer", 0, 10), span(1, 0, "inner", 2, 5)])
    assert table.self_time("outer") == pytest.approx(7.0)
    assert table.self_time("inner") == pytest.approx(3.0)
    assert table.busy("outer") == pytest.approx(10.0)


def test_sibling_children_are_summed():
    table = SpanTable(
        [span(0, -1, "outer", 0, 10), span(1, 0, "a", 1, 3), span(2, 0, "b", 4, 8)]
    )
    assert table.self_time("outer") == pytest.approx(4.0)


def test_grandchildren_only_count_against_their_own_parent():
    table = SpanTable(
        [span(0, -1, "outer", 0, 10), span(1, 0, "mid", 2, 8), span(2, 1, "leaf", 3, 4)]
    )
    assert table.self_time("outer") == pytest.approx(4.0)
    assert table.self_time("mid") == pytest.approx(5.0)


def test_cross_thread_children_cover_their_union_clipped_to_the_parent():
    table = SpanTable(
        [
            span(0, -1, "outer", 0, 10, thread=1),
            span(1, 0, "worker", 2, 6, thread=2),
            span(2, 0, "worker", 4, 9, thread=3),
            span(3, 0, "worker", 9.5, 14, thread=4),  # outlives the parent
        ]
    )
    # union of [2,6] and [4,9] is 7 s, plus [9.5,10] clipped: 0.5 s
    assert table.self_time("outer") == pytest.approx(2.5)


def test_same_name_nesting_counts_once():
    table = SpanTable(
        [
            span(0, -1, "llm.model", 0, 6, units=3),
            span(1, 0, "llm.model", 1, 2),
            span(2, 0, "llm.model", 3, 5),
            span(3, -1, "llm.model", 7, 8, units=2),
        ]
    )
    assert table.busy("llm.model") == pytest.approx(7.0)
    assert table.units("llm.model") == 5
    assert table.calls("llm.model") == 2


def test_window_keeps_spans_that_started_inside_it():
    spans = [span(0, -1, "x", 0, 1), span(1, -1, "x", 5, 6), span(2, -1, "x", 9, 12)]
    assert SpanTable(spans, window=(4, 10)).busy("x") == pytest.approx(4.0)
    assert SpanTable(spans, window=(float("-inf"), 4)).busy("x") == pytest.approx(1.0)


def test_uncovered_share_unions_across_threads():
    table = SpanTable(
        [span(0, -1, "a", 0, 4, thread=1), span(1, -1, "b", 2, 6, thread=2)]
    )
    assert table.uncovered_share(["a", "b"], 0, 10) == pytest.approx(0.4)
    assert covered_seconds([(0, 4), (2, 6)], 3, 5) == pytest.approx(2.0)


class _Layer:
    def work(self, items, scale=1):
        return len(items) * scale

    def outer(self, items):
        return self.work(items=items, scale=2)


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_wrappers_record_parents_keys_and_units():
    tracer = Tracer(clock=_fake_clock())
    layer = _Layer()
    tracer.wrap(layer, "work", "layer.work", units=lambda args, kwargs: len(args[0] if args else kwargs["items"]))
    tracer.wrap(layer, "outer", "layer.outer", key=lambda args, kwargs: "request-1")
    assert layer.outer([1, 2, 3]) == 6
    inner, outer = tracer.spans
    assert (inner.name, inner.units, inner.parent) == ("layer.work", 3, outer.id)
    assert (outer.name, outer.key, outer.parent, outer.units) == ("layer.outer", "request-1", -1, 1)
    assert outer.start < inner.start < inner.end < outer.end


def test_spans_on_another_thread_have_no_parent_here():
    tracer = Tracer()
    layer = _Layer()
    tracer.wrap(layer, "work", "layer.work")
    with tracer.span("main"):
        worker = threading.Thread(target=layer.work, args=([1],))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {recorded.name: recorded for recorded in tracer.spans}
    assert by_name["layer.work"].parent == -1
    assert by_name["layer.work"].thread != by_name["main"].thread


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()
    layer = _Layer()
    tracer.wrap(layer, "work", "layer.work")
    with pytest.raises(TypeError):
        layer.work(None)
    assert [recorded.name for recorded in tracer.spans] == ["layer.work"]
    with tracer.span("after"):
        pass
    assert tracer.spans[-1].parent == -1


def test_restore_puts_back_exactly_what_was_there():
    tracer = Tracer()
    plain, patched = _Layer(), _Layer()
    marker = lambda items, scale=1: "instance override"  # noqa: E731
    patched.work = marker
    tracer.wrap(plain, "work", "layer.work")
    tracer.wrap(plain, "outer", "layer.outer")
    tracer.wrap(patched, "work", "layer.work")
    assert "work" in vars(plain)
    tracer.restore()
    assert vars(plain) == {}
    assert plain.work.__func__ is _Layer.work
    assert patched.work is marker
    plain.work([1])
    assert tracer.spans == []


def test_null_tracer_installs_nothing():
    tracer = NullTracer()
    layer = _Layer()
    with tracer.span("anything"):
        pass
    tracer.restore()
    assert vars(layer) == {} and not tracer.spans and not tracer.enabled


def test_span_cost_is_small_and_leaves_no_spans():
    tracer = Tracer()
    cost = tracer.span_cost_seconds(calls=2_000)
    assert 0.0 <= cost < 1e-3
    assert tracer.spans == []
