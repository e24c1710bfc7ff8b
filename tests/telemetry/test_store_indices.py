"""The stores' write-maintained indices against brute-force references.

Each store is driven through random interleavings of in-order,
out-of-order and equal-timestamp writes and windowed reads, and every read
is compared — order included — with a reference that filters a plain list.
Further down: the work bounds (a windowed query builds only what it
returns), the indices' memory budget, copy/pickle round trips, and readers
racing out-of-order writers.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    LogLevel,
    LogRecord,
    LogStore,
    MetricStore,
    Span,
    TelemetryHub,
    TimeWindow,
    TraceStore,
    normalize_message,
)
from repro.telemetry import metrics as metrics_module
from repro.telemetry import traces as traces_module

SETTINGS = settings(max_examples=40, deadline=None)

#: Few distinct timestamps, so ties and boundary hits are the common case.
TIMES = st.integers(0, 6).map(float)
EDGES = st.one_of(st.none(), st.integers(-1, 7).map(float), st.sampled_from([0.5, 2.5, 5.5]))
MACHINES = st.sampled_from(["m1", "m2", "m3"])
COMPONENTS = st.sampled_from(["c1", "c2"])


def in_window(time, start, end):
    return (start is None or time >= start) and (end is None or time <= end)


# ------------------------------------------------------------------- logs
LOG_WRITES = st.builds(
    LogRecord,
    timestamp=TIMES,
    level=st.sampled_from(list(LogLevel)),
    component=COMPONENTS,
    machine=MACHINES,
    # Few signatures once the parameters are masked, so counts tie and collide.
    message=st.sampled_from(
        ["Boom 1", "Boom 22", "boom 2", "all good", "TIMEOUT after 3s", "TIMEOUT after 0x1f", " Boom 7 "]
    ),
)
LOG_READS = st.fixed_dictionaries(
    {
        "start": EDGES,
        "end": EDGES,
        "machine": st.one_of(st.none(), MACHINES, st.just("absent")),
        "component": st.one_of(st.none(), COMPONENTS, st.just("absent")),
        "min_level": st.one_of(st.none(), st.sampled_from(list(LogLevel))),
        "pattern": st.one_of(st.none(), st.sampled_from(["boom", "TIMEOUT", "nothing"])),
        "limit": st.one_of(st.none(), st.integers(0, 4)),
    }
)


SIGNATURE_READS = st.fixed_dictionaries(
    {"start": EDGES, "end": EDGES, "top": st.sampled_from([1, 3, 5, 50])}
)


def reference_log_query(written, start, end, machine, component, min_level, pattern, limit):
    matches = [
        r
        for r in sorted(written, key=lambda r: r.timestamp)
        if in_window(r.timestamp, start, end)
        and (machine is None or r.machine == machine)
        and (component is None or r.component == component)
        and (min_level is None or r.level >= min_level)
        and (pattern is None or pattern.lower() in r.message.lower())
    ]
    return matches if limit is None else matches[max(len(matches) - limit, 0) :]


def reference_error_signatures(written, start, end, top):
    """Normalise per query, as the store did before it kept the signatures."""
    counts = {}
    for record in written:
        if record.level >= LogLevel.ERROR and in_window(record.timestamp, start, end):
            signature = normalize_message(record.message)
            counts[signature] = counts.get(signature, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]


class TestLogStoreAgainstReference:
    @SETTINGS
    @given(st.lists(st.one_of(LOG_WRITES, LOG_READS), max_size=40))
    def test_interleaved_writes_and_queries(self, operations):
        store, written = LogStore(), []
        for operation in operations:
            if isinstance(operation, LogRecord):
                store.append(operation)
                written.append(operation)
                continue
            result = store.query(**operation)
            expected = reference_log_query(written, **operation)
            # Identity, not equality: equal-looking records must keep append order.
            assert [id(r) for r in result] == [id(r) for r in expected]
        assert [id(r) for r in store] == [id(r) for r in reference_log_query(written, *[None] * 7)]
        assert store.machines() == sorted({r.machine for r in written})
        assert store.components() == sorted({r.component for r in written})

    @SETTINGS
    @given(st.lists(st.one_of(LOG_WRITES, SIGNATURE_READS), max_size=40))
    def test_error_signatures_between_writes_and_after_copies(self, operations):
        hub, written, reads = TelemetryHub(), [], [{"start": None, "end": None, "top": 5}]
        for operation in operations:
            if isinstance(operation, LogRecord):
                hub.logs.append(operation)
                written.append(operation)
                continue
            reads.append(operation)
            start, end, top = operation["start"], operation["end"], operation["top"]
            expected = reference_error_signatures(written, start, end, top)
            assert hub.logs.error_signatures(start, end, top) == expected
            if start is not None and end is not None and start <= end:
                assert hub.error_summary(TimeWindow(start, end), top=top) == expected
        copies = [
            copy.deepcopy(hub.logs),
            pickle.loads(pickle.dumps(hub.logs)),
            copy.deepcopy(hub).logs,
            pickle.loads(pickle.dumps(hub)).logs,
        ]
        for read in reads:
            expected = reference_error_signatures(written, **read)
            for store in [hub.logs] + copies:
                assert store.error_signatures(**read) == expected


# ---------------------------------------------------------------- metrics
METRIC_WRITES = st.tuples(
    st.sampled_from(["cpu", "disk"]), MACHINES, TIMES, st.integers(-5, 5).map(float)
)
METRIC_READS = st.tuples(st.just("read"), EDGES, EDGES)


def reference_values(written, name, machine, start, end):
    return [
        v for n, m, t, v in written if (n, m) == (name, machine) and in_window(t, start, end)
    ]


def reference_aggregate(written, name, start, end, how):
    result = {}
    for machine in sorted({m for n, m, _, _ in written if n == name}):
        values = reference_values(written, name, machine, start, end)
        if how == "latest":
            samples = [(t, v) for n, m, t, v in written if (n, m) == (name, machine)]
            newest = max(t for t, _ in samples)
            # Equal newest timestamps: a later arrival lands behind, so it wins.
            values = [v for t, v in samples if t == newest][-1:]
            result[machine] = values[0]
        elif not values:
            result[machine] = 0.0
        elif how == "mean":
            result[machine] = sum(values) / len(values)
        else:
            result[machine] = max(values) if how == "max" else min(values)
    return result


class TestMetricStoreAgainstReference:
    @SETTINGS
    @given(st.lists(st.one_of(METRIC_WRITES, METRIC_READS), max_size=40))
    def test_interleaved_writes_and_queries(self, operations):
        store, written = MetricStore(), []
        for operation in operations:
            if operation[0] != "read":
                store.record(*operation)
                written.append(operation)
                continue
            _, start, end = operation
            assert store.metric_names() == sorted({n for n, _, _, _ in written})
            assert store.machines() == sorted({m for _, m, _, _ in written})
            for name in ("cpu", "disk", "absent"):
                machines = sorted({m for n, m, _, _ in written if n == name})
                assert [s.machine for s in store.series_for_metric(name)] == machines
                for how in ("mean", "max", "min", "latest"):
                    # Small integers: the reference's plain sum is exact too.
                    assert store.aggregate(name, start, end, how) == reference_aggregate(
                        written, name, start, end, how
                    )
                ranked = sorted(
                    reference_aggregate(written, name, start, end, "max").items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
                assert store.top_machines(name, start, end, top=2) == ranked[:2]
                for machine in machines:
                    series = store.series(name, machine)
                    expected = reference_values(written, name, machine, start, end)
                    assert sorted(series.values(start, end)) == sorted(expected)
                    points = series.points(start, end)
                    assert [p.value for p in points] == series.values(start, end)
                    assert [p.timestamp for p in points] == sorted(p.timestamp for p in points)
            for machine in ("m1", "absent"):
                names = sorted({n for n, m, _, _ in written if m == machine})
                present = [n for n in store.metric_names() if store.series(n, machine) is not None]
                assert present == names


# ----------------------------------------------------------------- traces
@st.composite
def span_writes(draw):
    trace_id = draw(st.sampled_from(["t1", "t2", "t3", "t4"]))
    return Span(
        trace_id=trace_id,
        span_id=f"s{draw(st.integers(0, 10**6))}",
        parent_id=draw(st.sampled_from([None, None, f"{trace_id}-p"])),
        service=draw(st.sampled_from(["submission", "routing", "delivery"])),
        operation="op",
        start=draw(TIMES),
        duration=draw(st.integers(1, 4).map(float)),
        status=draw(st.sampled_from(["ok", "ok", "error"])),
    )


def reference_traces(written, start, end, errors_only):
    result = []
    for trace_id in sorted({s.trace_id for s in written}):
        spans = sorted((s for s in written if s.trace_id == trace_id), key=lambda s: s.start)
        roots = [s for s in spans if s.parent_id is None]
        if not roots or not in_window(roots[0].start, start, end):
            continue
        if errors_only and not any(s.is_error for s in spans):
            continue
        result.append((trace_id, roots[0].span_id, [s.span_id for s in spans]))
    return result


def reference_error_rates(written, start, end):
    rates = {}
    for service in dict.fromkeys(s.service for s in written):
        scoped = [s for s in written if s.service == service and in_window(s.start, start, end)]
        if scoped:
            rates[service] = sum(s.is_error for s in scoped) / len(scoped)
    return rates


def described(traces):
    return [(t.trace_id, t.root.span_id, [s.span_id for s in t.spans]) for t in traces]


class TestTraceStoreAgainstReference:
    @SETTINGS
    @given(st.lists(st.one_of(span_writes(), METRIC_READS), max_size=40))
    def test_interleaved_writes_and_queries(self, operations):
        store, written = TraceStore(), []
        for operation in operations:
            if isinstance(operation, Span):
                store.add(operation)
                written.append(operation)
                continue
            _, start, end = operation
            assert described(store.traces(start, end)) == reference_traces(
                written, start, end, errors_only=False
            )
            assert described(store.error_traces(start, end)) == reference_traces(
                written, start, end, errors_only=True
            )
            rates = store.error_rate_by_service(start, end)
            expected = reference_error_rates(written, start, end)
            assert list(rates.items()) == list(expected.items())  # first-seen order too
            for service in ("delivery", "absent"):
                durations = sorted(
                    s.duration
                    for s in written
                    if s.service == service and in_window(s.start, start, end)
                )
                mean, p95 = store.service_latency(service, start, end)
                if durations:
                    index = min(len(durations) - 1, int(round(0.95 * (len(durations) - 1))))
                    assert (mean, p95) == (sum(durations) / len(durations), durations[index])
                else:
                    assert (mean, p95) == (0.0, 0.0)
        assert len(store) == len(written)
        assert store.trace_ids() == sorted({s.trace_id for s in written})


# ---------------------------------------------- synthetic hub (fixed shape)
def synthetic_hub(logs=4000, traces=5700, samples=38000, seed=5):
    """A hub the size of the benchmark's: 4k logs, 17k spans, 38k samples.

    One write in ten arrives out of order; one trace in thirty has an error.
    """
    rng = random.Random(seed)
    hub = TelemetryHub()

    def jitter(time):
        return time - rng.uniform(0.0, 40.0) if rng.random() < 0.1 else time

    for i in range(logs):
        hub.emit_log(
            jitter(i * 2.0),
            rng.choice(["INFO", "WARNING", "ERROR"]),
            f"component-{i % 12}",
            f"machine-{i % 40}",
            f"request {i} failed",
        )
    for i in range(traces):
        start = jitter(i * 1.5)
        status = "error" if i % 30 == 0 else "ok"
        hub.emit_span(Span(f"t{i}", f"t{i}-0", None, "submission", "receive", start, 0.1))
        hub.emit_span(Span(f"t{i}", f"t{i}-1", f"t{i}-0", "routing", "route", start + 0.1, 0.2))
        hub.emit_span(
            Span(f"t{i}", f"t{i}-2", f"t{i}-1", "delivery", "deliver", start + 0.3, 0.5, status)
        )
    for i in range(samples):
        hub.emit_metric(f"metric-{i % 3}", f"machine-{i % 40}", jitter(float(i // 120)), rng.random())
    return hub


@pytest.fixture(scope="module")
def hub():
    return synthetic_hub()


def hub_answers(hub):
    """One of each windowed query a handler issues, in a comparable form."""
    window = (2000.0, 5000.0)
    return {
        "logs": [r.render() for r in hub.logs.query(*window, machine="machine-3")],
        "scoped": [r.render() for r in hub.logs.query(*window, "machine-3", "component-3")],
        "signatures": hub.logs.error_signatures(*window),
        "top": hub.metrics.top_machines("metric-1", *window, top=3),
        "names": hub.metrics.metric_names(),
        "traces": described(hub.traces.error_traces(*window)),
        "rates": list(hub.traces.error_rate_by_service(*window).items()),
        "sizes": hub.describe(),
    }


class TestWorkBounds:
    def test_error_traces_builds_only_the_traces_it_returns(self, hub, monkeypatch):
        built = []

        class CountingTrace(traces_module.Trace):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(traces_module, "Trace", CountingTrace)
        errors = hub.traces.error_traces(2000.0, 5000.0)
        assert 0 < len(errors) == len(built) < 100
        del built[:]
        assert len(hub.traces.traces(2000.0, 2300.0)) == len(built) < 250
        del built[:]
        assert hub.traces.error_rate_by_service(2000.0, 5000.0) and not built

    def test_aggregates_build_no_metric_points(self, hub, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a MetricPoint was built for an aggregate")

        monkeypatch.setattr(metrics_module, "MetricPoint", forbidden)
        series = hub.metrics.series("metric-1", "machine-7")
        assert series.maximum(100.0, 200.0) >= series.mean(100.0, 200.0) >= series.minimum(100.0, 200.0)
        assert len(hub.metrics.top_machines("metric-1", 100.0, 200.0, top=3)) == 3
        assert hub.busiest_machine("metric-2", TimeWindow(100.0, 200.0))

    def test_indices_fit_in_a_megabyte(self, hub):
        """Containers only: what they hold (records, floats) is the stores' data."""

        def column_bytes(column):
            return sys.getsizeof(column) + sys.getsizeof(column.times) + sys.getsizeof(column.items)

        logs, traces, metrics = hub.logs, hub.traces, hub.metrics
        total = sys.getsizeof(logs._all.times)
        total += column_bytes(logs._errors) + column_bytes(logs._error_signatures)
        for postings in (logs._by_machine, logs._by_component):
            total += sys.getsizeof(postings) + sum(map(column_bytes, postings.values()))
        total += column_bytes(traces._roots) + sys.getsizeof(traces._error_ids)
        total += sys.getsizeof(traces._services)
        for spans, error_starts in traces._services.values():
            total += column_bytes(spans) + sys.getsizeof(error_starts)
        for index in (metrics._by_name, metrics._by_machine):
            total += sys.getsizeof(index) + sum(map(sys.getsizeof, index.values()))
        assert total < 1_000_000


class TestCopies:
    def test_deepcopy_and_pickle_answer_like_the_original(self, hub):
        expected = hub_answers(hub)
        assert hub_answers(copy.deepcopy(hub)) == expected
        clone = pickle.loads(pickle.dumps(hub))
        assert hub_answers(clone) == expected
        clone.emit_span(Span("late", "late-0", None, "submission", "receive", 2500.0, 0.1, "error"))
        assert len(clone.traces.error_traces(2000.0, 5000.0)) == len(expected["traces"]) + 1
        assert hub_answers(hub) == expected


class TestReadersRacingWriters:
    def test_windowed_queries_during_out_of_order_writes_match_the_serial_result(self):
        """More threads than cores, a short switch interval, shuffled writes.

        Timestamps are distinct, so the final contents do not depend on which
        writer got there first; while the writers run, every answer a reader
        gets must be a consistent point-in-time view.
        """
        records = [
            LogRecord(
                float(i),
                LogLevel.ERROR if i % 5 else LogLevel.WARNING,
                f"c{i % 3}",
                f"m{i % 4}",
                f"{'boom' if i % 3 else 'bang'} {i}",
            )
            for i in range(1500)
        ]
        spans = []
        for i in range(500):
            status = "error" if i % 7 == 0 else "ok"
            spans.append(Span(f"t{i}", f"t{i}-0", None, "submission", "receive", float(i), 0.1))
            spans.append(Span(f"t{i}", f"t{i}-1", f"t{i}-0", "delivery", "deliver", i + 0.5, 0.2, status))
        samples = [("cpu", f"m{i % 4}", float(i), float(i % 17)) for i in range(1500)]
        serial = TelemetryHub()
        serial.logs.extend(records)
        serial.traces.extend(spans)
        for sample in samples:
            serial.metrics.record(*sample)

        writes = [("logs", r) for r in records] + [("traces", s) for s in spans]
        writes += [("metrics", m) for m in samples]
        random.Random(11).shuffle(writes)
        shared = TelemetryHub()
        failures, done = [], threading.Event()

        def writer(share):
            for store, item in share:
                if store == "logs":
                    shared.logs.append(item)
                elif store == "traces":
                    shared.traces.add(item)
                else:
                    shared.metrics.record(*item)

        def reader(seed):
            local = random.Random(seed)
            try:
                while not done.is_set():
                    start = local.uniform(0.0, 1400.0)
                    end = start + 100.0
                    machine = f"m{local.randrange(4)}"
                    times = [r.timestamp for r in shared.logs.query(start, end, machine=machine)]
                    assert times == sorted(times) and all(start <= t <= end for t in times)
                    ranked = shared.logs.error_signatures(start, end)
                    assert ranked == sorted(ranked, key=lambda kv: (-kv[1], kv[0]))
                    assert {signature for signature, _ in ranked} <= {"bang <num>", "boom <num>"}
                    assert sum(count for _, count in ranked) <= 81  # 4 in 5 of <= 101
                    for trace in shared.traces.error_traces(start, end):
                        assert start <= trace.root.start <= end and trace.error_spans()
                    rates = shared.traces.error_rate_by_service(start, end)
                    assert all(0.0 <= rate <= 1.0 for rate in rates.values())
                    for _, value in shared.metrics.top_machines("cpu", start, end):
                        assert 0.0 <= value <= 16.0
            except Exception as error:  # re-raised by the main thread
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
            writers = [threading.Thread(target=writer, args=(writes[i::4],)) for i in range(4)]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            for thread in readers:
                thread.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in readers + writers)
        if failures:
            raise failures[0]

        for start, end in [(None, None), (100.0, 900.0), (700.5, 701.5), (900.0, 100.0)]:
            for machine in (None, "m2"):
                assert shared.logs.query(start, end, machine=machine, component="c1") == (
                    serial.logs.query(start, end, machine=machine, component="c1")
                )
            assert shared.logs.error_signatures(start, end) == (
                reference_error_signatures(records, start, end, top=5)
            )
            assert described(shared.traces.traces(start, end)) == described(
                serial.traces.traces(start, end)
            )
            assert described(shared.traces.error_traces(start, end)) == described(
                serial.traces.error_traces(start, end)
            )
            assert shared.traces.error_rate_by_service(start, end) == (
                serial.traces.error_rate_by_service(start, end)
            )
            assert shared.metrics.top_machines("cpu", start, end) == (
                serial.metrics.top_machines("cpu", start, end)
            )
            assert shared.metrics.aggregate("cpu", start, end, how="mean") == (
                serial.metrics.aggregate("cpu", start, end, how="mean")
            )
