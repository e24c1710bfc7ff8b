"""Tests for alert routing, probes, and watchdog monitors."""

from __future__ import annotations

import pytest

from repro.monitors import (
    ALERT_TYPES,
    Alert,
    AlertRouter,
    AlertScope,
    CrashSpikeMonitor,
    DEFAULT_PROBES,
    ErrorLogMonitor,
    MetricThresholdMonitor,
    MonitorSuite,
    ThresholdRule,
    default_monitor_suite,
)
from repro.telemetry import SystemEvent, TelemetryHub, TimeWindow


def make_alert(router, alert_type="DiskSpaceLow", ts=100.0, machine="m1", forest="f1"):
    return Alert(
        alert_id=router.next_alert_id(),
        alert_type=alert_type,
        scope=AlertScope.MACHINE,
        timestamp=ts,
        machine=machine,
        forest=forest,
        message="disk nearly full",
        severity=2,
    )


class TestAlertScope:
    def test_narrower_and_wider(self):
        assert AlertScope.FOREST.narrower() is AlertScope.MACHINE
        assert AlertScope.MACHINE.narrower() is AlertScope.MACHINE
        assert AlertScope.FOREST.wider() is AlertScope.SERVICE
        assert AlertScope.SERVICE.wider() is AlertScope.SERVICE


class TestAlertRouter:
    def test_routes_first_alert(self):
        router = AlertRouter()
        alert = make_alert(router)
        assert router.submit(alert) is alert
        assert router.suppressed_count == 0

    def test_suppresses_duplicates_within_window(self):
        router = AlertRouter(dedup_window=900.0)
        router.submit(make_alert(router, ts=100.0))
        assert router.submit(make_alert(router, ts=200.0)) is None
        assert router.suppressed_count == 1

    def test_allows_after_window(self):
        router = AlertRouter(dedup_window=100.0)
        router.submit(make_alert(router, ts=100.0))
        assert router.submit(make_alert(router, ts=500.0)) is not None

    def test_different_targets_not_deduped(self):
        router = AlertRouter()
        router.submit(make_alert(router, machine="m1"))
        assert router.submit(make_alert(router, machine="m2")) is not None

    def test_alert_summary_mentions_type(self):
        router = AlertRouter()
        alert = make_alert(router)
        assert "DiskSpaceLow" in alert.summary()


class TestProbes:
    def test_default_probe_suite_members(self):
        assert "DatacenterHubOutboundProxyProbe" in DEFAULT_PROBES
        assert "DiskSpaceProbe" in DEFAULT_PROBES

    def test_outbound_proxy_probe_detects_winsock_errors(self, hub: TelemetryHub):
        hub.emit_log(10.0, "ERROR", "proxy", "m1", "WinSock error: 11001 at Connect")
        hub.emit_metric("udp_socket_count", "m1", 10.0, 15000.0)
        probe = DEFAULT_PROBES["DatacenterHubOutboundProxyProbe"]
        result = probe.run(hub, "m1", TimeWindow(0.0, 20.0))
        assert not result.healthy
        assert "15000" in result.render()

    def test_disk_probe_threshold(self, hub: TelemetryHub):
        hub.emit_metric("disk_usage_percent", "m1", 10.0, 99.0)
        probe = DEFAULT_PROBES["DiskSpaceProbe"]
        result = probe.run(hub, "m1", TimeWindow(0.0, 20.0))
        assert not result.healthy
        hub.emit_metric("disk_usage_percent", "m2", 10.0, 20.0)
        assert probe.run(hub, "m2", TimeWindow(0.0, 20.0)).healthy

    def test_delivery_health_probe(self, hub: TelemetryHub):
        hub.emit_metric("delivery_queue_length", "m1", 10.0, 5000.0)
        probe = DEFAULT_PROBES["MailboxDeliveryHealthProbe"]
        assert not probe.run(hub, "m1", TimeWindow(0.0, 20.0)).healthy

    def test_certificate_probe(self, hub: TelemetryHub):
        hub.emit_log(10.0, "ERROR", "auth", "m1", "invalid certificate thumbprint")
        probe = DEFAULT_PROBES["AuthCertificateProbe"]
        assert not probe.run(hub, "m1", TimeWindow(0.0, 20.0)).healthy

    def test_probe_result_render_shape(self, hub: TelemetryHub):
        probe = DEFAULT_PROBES["DiskSpaceProbe"]
        rendered = probe.run(hub, "m1", TimeWindow(0.0, 20.0)).render()
        assert "Total Probes" in rendered


class TestMonitors:
    def test_metric_threshold_monitor_raises_alert(self, hub: TelemetryHub):
        hub.emit_metric("disk_usage_percent", "m1", 10.0, 99.0)
        monitor = MetricThresholdMonitor(
            "DiskSpaceLow",
            ThresholdRule("disk_usage_percent", 95.0, AlertScope.FOREST, 2, "disk full"),
            forest_of={"m1": "f1"},
        )
        router = AlertRouter()
        alerts = monitor.evaluate(hub, TimeWindow(0.0, 20.0), router)
        assert len(alerts) == 1
        assert alerts[0].alert_type == "DiskSpaceLow"
        assert alerts[0].forest == "f1"

    def test_metric_threshold_monitor_quiet_below_threshold(self, hub: TelemetryHub):
        hub.emit_metric("disk_usage_percent", "m1", 10.0, 50.0)
        monitor = MetricThresholdMonitor(
            "DiskSpaceLow",
            ThresholdRule("disk_usage_percent", 95.0, AlertScope.FOREST, 2, "disk full"),
        )
        assert monitor.evaluate(hub, TimeWindow(0.0, 20.0), AlertRouter()) == []

    def test_error_log_monitor_counts_matches(self, hub: TelemetryHub):
        for i in range(3):
            hub.emit_log(float(i), "ERROR", "auth", "m1", "token creation failed")
        monitor = ErrorLogMonitor(
            "AuthTokenFailure", "token", 3, AlertScope.FOREST, 1, "token failures"
        )
        alerts = monitor.evaluate(hub, TimeWindow(0.0, 20.0), AlertRouter())
        assert len(alerts) == 1
        assert alerts[0].severity == 1

    def test_error_log_monitor_below_min_count(self, hub: TelemetryHub):
        hub.emit_log(1.0, "ERROR", "auth", "m1", "token creation failed")
        monitor = ErrorLogMonitor(
            "AuthTokenFailure", "token", 3, AlertScope.FOREST, 1, "token failures"
        )
        assert monitor.evaluate(hub, TimeWindow(0.0, 20.0), AlertRouter()) == []

    def test_crash_spike_monitor(self, hub: TelemetryHub):
        for i in range(6):
            hub.emit_event(
                SystemEvent(float(i), "process_crash", f"m{i % 2}", "worker", "crash")
            )
        monitor = CrashSpikeMonitor(crash_threshold=5, forest_of={"m0": "f1", "m1": "f1"})
        alerts = monitor.evaluate(hub, TimeWindow(0.0, 20.0), AlertRouter())
        assert len(alerts) == 1
        assert alerts[0].scope is AlertScope.FOREST

    def test_default_suite_covers_all_alert_types(self):
        suite = default_monitor_suite({})
        covered = {m.alert_type for m in suite.monitors}
        assert covered == set(ALERT_TYPES)

    def test_monitor_suite_sweep(self, hub: TelemetryHub):
        hub.emit_metric("disk_usage_percent", "m1", 500.0, 99.0)
        suite = default_monitor_suite({"m1": "f1"})
        alerts = suite.sweep(hub, 0.0, 1000.0, step=250.0)
        assert any(a.alert_type == "DiskSpaceLow" for a in alerts)
