"""Tests for the simulated Transport service: topology, workload, faults."""

from __future__ import annotations

import random

import pytest

from repro.cloudsim import (
    FAULT_INJECTORS,
    TABLE1_SCENARIOS,
    TransportService,
    WorkloadConfig,
    WorkloadGenerator,
    build_topology,
    injector_for,
    scenario_by_category,
    scenario_by_number,
)
from repro.telemetry import TelemetryHub


class TestTopology:
    def test_build_shape(self):
        topology = build_topology(num_forests=2, mailbox_per_forest=3)
        assert len(topology.forests) == 2
        assert len(topology.forest("forest-01").by_role("mailbox")) == 3

    def test_machine_lookup(self):
        topology = build_topology()
        machine = topology.machines[0]
        assert topology.machine(machine.name) is machine
        assert topology.machine("nope") is None
        assert topology.forest("nope") is None

    def test_forest_of_mapping(self):
        topology = build_topology(num_forests=2)
        mapping = topology.forest_of()
        assert all(name.startswith(forest) for name, forest in mapping.items())

    def test_machines_by_role(self):
        topology = build_topology()
        hubs = topology.machines_by_role("hub")
        assert hubs and all(m.role == "hub" for m in hubs)

    def test_names_are_deterministic(self):
        a = build_topology()
        b = build_topology()
        assert [m.name for m in a.machines] == [m.name for m in b.machines]


class TestWorkload:
    def test_generates_metrics_and_traces(self):
        topology = build_topology(num_forests=1)
        hub = TelemetryHub()
        generator = WorkloadGenerator(topology, hub, WorkloadConfig(), rng=random.Random(1))
        generator.run(0.0, 3600.0)
        assert len(hub.metrics) > 0
        assert len(hub.traces) > 0
        assert "disk_usage_percent" in hub.metrics.metric_names()

    def test_machine_state_overrides_metrics(self):
        topology = build_topology(num_forests=1)
        machine = topology.machines_by_role("frontdoor")[0]
        machine.state["udp_socket_count"] = 15000.0
        hub = TelemetryHub()
        WorkloadGenerator(topology, hub, rng=random.Random(1)).run(0.0, 600.0)
        assert hub.metrics.latest("udp_socket_count", machine.name) == 15000.0


class TestFaultInjectors:
    def test_every_table1_category_has_injector(self):
        for scenario in TABLE1_SCENARIOS:
            assert scenario.category in FAULT_INJECTORS

    def test_injector_for_unknown(self):
        assert injector_for("NotACategory") is None

    @pytest.mark.parametrize("category", sorted(FAULT_INJECTORS))
    def test_injection_produces_expected_alert(self, category):
        service = TransportService(seed=hash(category) % 1000)
        service.warm_up(hours=0.5)
        outcome = service.inject_and_detect(category)
        assert outcome.fault.category == category
        assert outcome.detected, f"no alert raised for {category}"
        alert_types = {a.alert_type for a in outcome.alerts}
        assert outcome.fault.expected_alert_type in alert_types

    def test_unknown_category_raises(self):
        service = TransportService(seed=1)
        with pytest.raises(KeyError):
            service.inject("NotACategory")


class TestScenarios:
    def test_table1_has_ten_rows(self):
        assert len(TABLE1_SCENARIOS) == 10

    def test_lookup_by_category_and_number(self):
        assert scenario_by_category("FullDisk").number == 8
        assert scenario_by_number(2).category == "HubPortExhaustion"
        assert scenario_by_category("Nope") is None
        assert scenario_by_number(99) is None

    def test_occurrences_match_paper(self):
        expected = {1: 3, 2: 27, 3: 6, 4: 15, 5: 11, 6: 2, 7: 9, 8: 2, 9: 11, 10: 22}
        for scenario in TABLE1_SCENARIOS:
            assert scenario.occurrences == expected[scenario.number]

    def test_as_table_row(self):
        row = TABLE1_SCENARIOS[0].as_table_row()
        assert row["Category"] == "AuthCertIssue"
        assert row["Sev."] == "1"


class TestTransportService:
    def test_warm_up_and_describe(self, warm_service: TransportService):
        assert warm_service.clock > 0
        assert "TransportService" in warm_service.describe()

    def test_advance_returns_alert_list(self):
        service = TransportService(seed=9)
        alerts = service.advance(1800.0)
        assert isinstance(alerts, list)
