"""Tests for the log store."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.telemetry import LogLevel, LogRecord, LogStore
from repro.telemetry.logs import normalize_message


def make_record(ts: float, level=LogLevel.ERROR, machine="m1", component="c1", msg="boom"):
    return LogRecord(timestamp=ts, level=level, component=component, machine=machine, message=msg)


class TestLogLevel:
    def test_parse_from_name(self):
        assert LogLevel.parse("error") is LogLevel.ERROR
        assert LogLevel.parse("CRITICAL") is LogLevel.CRITICAL

    def test_parse_from_int_and_level(self):
        assert LogLevel.parse(20) is LogLevel.INFO
        assert LogLevel.parse(LogLevel.DEBUG) is LogLevel.DEBUG

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            LogLevel.parse("noise")

    def test_ordering(self):
        assert LogLevel.DEBUG < LogLevel.ERROR < LogLevel.CRITICAL


class TestLogStore:
    def test_append_and_len(self):
        store = LogStore()
        store.append(make_record(1.0))
        store.append(make_record(2.0))
        assert len(store) == 2

    def test_query_time_window(self):
        store = LogStore()
        store.extend(make_record(float(i)) for i in range(10))
        result = store.query(start=3.0, end=6.0)
        assert [r.timestamp for r in result] == [3.0, 4.0, 5.0, 6.0]

    def test_query_by_machine_and_component(self):
        store = LogStore()
        store.append(make_record(1.0, machine="a", component="x"))
        store.append(make_record(2.0, machine="b", component="x"))
        store.append(make_record(3.0, machine="a", component="y"))
        assert len(store.query(machine="a")) == 2
        assert len(store.query(component="x")) == 2
        assert len(store.query(machine="a", component="x")) == 1

    def test_query_min_level(self):
        store = LogStore()
        store.append(make_record(1.0, level=LogLevel.INFO))
        store.append(make_record(2.0, level=LogLevel.ERROR))
        assert len(store.query(min_level=LogLevel.WARNING)) == 1

    def test_error_level_query_keeps_critical_and_drops_warning(self):
        store = LogStore()
        for ts, level in enumerate(
            [LogLevel.INFO, LogLevel.WARNING, LogLevel.ERROR, LogLevel.ERROR, LogLevel.CRITICAL]
        ):
            store.append(make_record(float(ts), level=level))
        errors = store.query(min_level=LogLevel.ERROR)
        assert [r.level for r in errors] == [LogLevel.ERROR, LogLevel.ERROR, LogLevel.CRITICAL]
        assert len(store.query(min_level=LogLevel.CRITICAL)) == 1
        assert len(store.query(min_level=LogLevel.WARNING)) == 4
        assert len(store.query(start=3.0, min_level=LogLevel.ERROR)) == 2

    def test_query_pattern_case_insensitive(self):
        store = LogStore()
        store.append(make_record(1.0, msg="WinSock error 11001"))
        store.append(make_record(2.0, msg="all good"))
        assert len(store.query(pattern="winsock")) == 1

    def test_query_limit_keeps_most_recent(self):
        store = LogStore()
        store.extend(make_record(float(i)) for i in range(5))
        result = store.query(limit=2)
        assert [r.timestamp for r in result] == [3.0, 4.0]

    def test_query_limit_zero_returns_nothing(self):
        store = LogStore()
        store.extend(make_record(float(i)) for i in range(5))
        assert store.query(limit=0) == []

    def test_out_of_order_append_is_resorted(self):
        store = LogStore()
        store.append(make_record(5.0))
        store.append(make_record(1.0))
        assert [r.timestamp for r in store.query()] == [1.0, 5.0]

    def test_machines_and_components_listing(self):
        store = LogStore()
        store.append(make_record(1.0, machine="b", component="y"))
        store.append(make_record(2.0, machine="a", component="x"))
        assert store.machines() == ["a", "b"]
        assert store.components() == ["x", "y"]

    def test_error_signatures_group_numbers(self):
        store = LogStore()
        store.append(make_record(1.0, msg="timeout after 30 seconds"))
        store.append(make_record(2.0, msg="timeout after 45 seconds"))
        signatures = store.error_signatures()
        assert signatures[0][1] == 2
        assert "<num>" in signatures[0][0]

    def test_error_signatures_window_ties_and_levels(self):
        store = LogStore()
        store.append(make_record(1.0, msg="disk 1 full"))
        store.append(make_record(2.0, msg="bang"))
        store.append(make_record(3.0, msg="disk 7 full"))
        store.append(make_record(4.0, level=LogLevel.WARNING, msg="bang"))
        store.append(make_record(5.0, msg="crash"))
        # Below ERROR never counts; ties rank by signature text.
        assert store.error_signatures() == [("disk <num> full", 2), ("bang", 1), ("crash", 1)]
        assert store.error_signatures(start=2.0, end=3.0) == [("bang", 1), ("disk <num> full", 1)]
        assert store.error_signatures(top=1) == [("disk <num> full", 2)]

    def test_tail(self):
        store = LogStore()
        store.extend(make_record(float(i)) for i in range(10))
        assert len(store.tail(3)) == 3
        assert store.tail(3)[-1].timestamp == 9.0


class TestNormalization:
    def test_normalize_replaces_guids_hex_numbers(self):
        msg = "failed 0xdeadbeef 42 0f8fad5b-d9cb-469f-a165-70867728950e"
        normalized = normalize_message(msg)
        assert "<hex>" in normalized
        assert "<num>" in normalized
        assert "<guid>" in normalized

    @given(st.text(max_size=200))
    def test_normalize_is_idempotent(self, text):
        once = normalize_message(text)
        assert normalize_message(once) == once

    def test_render_contains_fields(self):
        record = LogRecord(1.0, LogLevel.ERROR, "c", "m", "msg", fields={"k": "v"})
        assert "k=v" in record.render()

    def test_record_matches_is_case_insensitive(self):
        record = make_record(1.0, msg="WinSock error 11001")
        assert record.matches("winsock ERROR")
        assert not record.matches("timeout")
