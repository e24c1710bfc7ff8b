"""Tests for the event store and the unified telemetry hub."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    EventStore,
    LogLevel,
    SystemEvent,
    TelemetryHub,
    TimeWindow,
)


def make_event(ts: float, kind="process_crash", machine="m1", component="worker"):
    return SystemEvent(timestamp=ts, kind=kind, machine=machine, component=component, detail="d")


class TestEventStore:
    def test_add_keeps_sorted(self):
        store = EventStore()
        store.add(make_event(5.0))
        store.add(make_event(1.0))
        assert [e.timestamp for e in store] == [1.0, 5.0]

    def test_query_filters(self):
        store = EventStore()
        store.extend(
            [
                make_event(1.0, kind="deployment"),
                make_event(2.0, kind="process_crash", machine="m2"),
                make_event(3.0, kind="process_crash"),
            ]
        )
        assert len(store.query(kind="process_crash")) == 2
        assert len(store.query(machine="m2")) == 1
        assert len(store.query(start=2.5)) == 1
        assert len(store.query(component="worker")) == 3

    def test_count_and_last(self):
        store = EventStore()
        store.extend([make_event(1.0), make_event(4.0)])
        assert store.count("process_crash") == 2
        assert store.last("process_crash").timestamp == 4.0
        assert store.last("deployment") is None

    def test_query_window_is_inclusive_and_filters_combine(self):
        store = EventStore()
        store.extend(
            [
                make_event(50.0, kind="service_restart", component="delivery"),
                make_event(100.0, kind="service_restart", component="delivery"),
                make_event(150.0, kind="service_restart", component="routing"),
                make_event(200.0, kind="process_crash", component="delivery"),
            ]
        )
        # The restarts of one component in the last 100 s before t=200.
        restarts = store.query(start=100.0, end=200.0, kind="service_restart", component="delivery")
        assert [e.timestamp for e in restarts] == [100.0]
        assert store.query(start=201.0, kind="service_restart") == []

    def test_count_and_last_respect_the_window(self):
        store = EventStore()
        store.extend(
            [
                make_event(1.0, kind="deployment"),
                make_event(2.0, kind="config_change"),
                make_event(6.0, kind="deployment"),
            ]
        )
        assert store.count("deployment", 0.0, 5.0) == 1
        assert store.count("config_change", 0.0, 5.0) == 1
        assert store.count("deployment") == 2
        assert store.last("deployment", before=5.0).timestamp == 1.0
        assert store.last("config_change", before=1.5) is None

    def test_crash_counts_by_machine(self):
        store = EventStore()
        store.extend([make_event(1.0), make_event(2.0), make_event(3.0, machine="m2")])
        counts = store.crash_counts_by_machine()
        assert counts == {"m1": 2, "m2": 1}

    def test_crash_counts_by_machine_in_a_window(self):
        store = EventStore()
        store.extend(
            [
                make_event(1.0),
                make_event(5.0),
                make_event(6.0, machine="m2"),
                make_event(7.0, kind="service_restart", machine="m3"),
            ]
        )
        assert store.crash_counts_by_machine(start=4.0, end=10.0) == {"m1": 1, "m2": 1}
        assert store.crash_counts_by_machine(start=8.0) == {}

    def test_render(self):
        assert "EVENT" in make_event(1.0).render()


class TestTimeWindow:
    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            TimeWindow(10.0, 5.0)

    def test_contains_and_duration(self):
        window = TimeWindow(0.0, 10.0)
        assert window.duration == 10.0
        assert window.contains(5.0)
        assert not window.contains(11.0)

    def test_zero_length_window_holds_its_instant(self):
        window = TimeWindow(5.0, 5.0)
        assert window.duration == 0.0
        assert window.contains(5.0)
        assert not window.contains(5.5)


class TestTelemetryHub:
    def test_emit_and_snapshot(self, hub: TelemetryHub):
        hub.emit_log(10.0, "ERROR", "comp", "m1", "WinSock error")
        hub.emit_metric("udp_socket_count", "m1", 10.0, 15000.0)
        hub.emit_event(make_event(10.0, machine="m1"))
        snapshot = hub.snapshot(TimeWindow(0.0, 20.0), machine="m1")
        assert len(snapshot.logs) == 1
        assert snapshot.metrics["udp_socket_count"] == 15000.0
        assert len(snapshot.events) == 1
        assert not snapshot.is_empty()

    def test_snapshot_scope_excludes_other_machines(self, hub: TelemetryHub):
        hub.emit_log(10.0, "ERROR", "comp", "other", "boom")
        snapshot = hub.snapshot(TimeWindow(0.0, 20.0), machine="m1")
        assert snapshot.is_empty()

    def test_snapshot_respects_min_level(self, hub: TelemetryHub):
        hub.emit_log(10.0, "INFO", "comp", "m1", "hello")
        snapshot = hub.snapshot(TimeWindow(0.0, 20.0), machine="m1", min_level=LogLevel.WARNING)
        assert snapshot.logs == []

    def test_busiest_machine(self, hub: TelemetryHub):
        hub.emit_metric("udp_socket_count", "m1", 5.0, 100.0)
        hub.emit_metric("udp_socket_count", "m2", 5.0, 900.0)
        busiest = hub.busiest_machine("udp_socket_count", TimeWindow(0.0, 10.0))
        assert busiest[0] == "m2"

    def test_busiest_machine_empty(self, hub: TelemetryHub):
        assert hub.busiest_machine("missing", TimeWindow(0.0, 10.0)) is None

    def test_error_summary(self, hub: TelemetryHub):
        hub.emit_log(1.0, "ERROR", "comp", "m1", "disk full 1")
        hub.emit_log(2.0, "ERROR", "comp", "m1", "disk full 2")
        summary = hub.error_summary(TimeWindow(0.0, 10.0))
        assert summary[0][1] == 2

    def test_describe(self, hub: TelemetryHub):
        assert "TelemetryHub" in hub.describe()
