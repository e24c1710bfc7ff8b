"""Tests for handler actions, graphs, registry, serialization and execution."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cloudsim import TransportService
from repro.handlers import (
    ActionContext,
    HandlerBuilder,
    HandlerExecutor,
    HandlerNotFoundError,
    HandlerRegistry,
    HandlerValidationError,
    IncidentHandler,
    MitigationAction,
    QueryAction,
    ScopeSwitchAction,
    default_registry,
    delivery_backlog_handler,
    handler_from_json,
    handler_to_json,
    linear_handler,
)
from repro.handlers.handler import HandlerNode
from repro.incidents import Incident, Severity
from repro.monitors import ALERT_TYPES, Alert, AlertScope
from repro.telemetry import TelemetryHub, TimeWindow

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
EXAMPLE = os.path.join(ROOT, "examples", "handler_authoring.py")

#: The handler-authoring example's reuse call, printed as the key order.
REUSE_SCRIPT = """
import runpy, sys
from repro.handlers import HandlerRegistry
example = runpy.run_path(sys.argv[1])
registry = HandlerRegistry()
registry.register(example["build_v1"](), team="Transport")
registry.register(example["build_v2"](), team="Transport")
print(list(registry.action_reuse_counts()))
"""


def make_incident(alert_type="DiskSpaceLow", machine="m1", scope=AlertScope.MACHINE):
    return Incident(
        incident_id="INC-1",
        title="t",
        created_at=7200.0,
        alert_type=alert_type,
        scope=scope,
        severity=Severity.SEV2,
        forest="forest-01",
        machine=machine,
        alert_message="disk nearly full on m1",
    )


class TestActions:
    def test_scope_switch_picks_busiest_machine(self, hub: TelemetryHub):
        hub.emit_metric("udp_socket_count", "m1", 7000.0, 100.0)
        hub.emit_metric("udp_socket_count", "m2", 7000.0, 9000.0)
        incident = make_incident(scope=AlertScope.FOREST, machine="")
        context = ActionContext.for_incident(incident, hub)
        action = ScopeSwitchAction("switch", AlertScope.MACHINE)
        result = action.execute(context)
        assert context.target_machine == "m2"
        assert result.outcome == "machine"
        assert result.sections

    def test_query_action_error_logs(self, hub: TelemetryHub):
        hub.emit_log(7000.0, "ERROR", "c", "m1", "IOException: disk is full")
        context = ActionContext.for_incident(make_incident(), hub)
        action = QueryAction("io_errors", source="error_logs", pattern="IOException")
        result = action.execute(context)
        assert result.output["io_errors.error_count"] == "1"

    def test_query_action_metrics_scoped_to_machine(self, hub: TelemetryHub):
        hub.emit_metric("disk_usage_percent", "m1", 7000.0, 99.0)
        context = ActionContext.for_incident(make_incident(), hub)
        action = QueryAction("disk", source="metrics", metric_names=["disk_usage_percent"])
        result = action.execute(context)
        assert float(result.output["disk.disk_usage_percent"]) == pytest.approx(99.0)

    def test_query_action_events_and_classifier(self, hub: TelemetryHub):
        from repro.telemetry import SystemEvent

        hub.emit_event(SystemEvent(7000.0, "service_restart", "m1", "delivery", "restart"))
        context = ActionContext.for_incident(make_incident(), hub)
        action = QueryAction(
            "events",
            source="events",
            classify=lambda ctx, table: "restarted" if table.get("count.service_restart") else "no",
        )
        result = action.execute(context)
        assert result.outcome == "restarted"

    def test_query_action_probe(self, hub: TelemetryHub):
        hub.emit_metric("disk_usage_percent", "m1", 7000.0, 99.0)
        context = ActionContext.for_incident(make_incident(), hub)
        action = QueryAction("probe", source="probe:DiskSpaceProbe")
        result = action.execute(context)
        assert result.output["probe.healthy"] == "false"

    def test_query_action_unknown_source(self, hub: TelemetryHub):
        context = ActionContext.for_incident(make_incident(), hub)
        with pytest.raises(ValueError):
            QueryAction("bad", source="not_a_source").execute(context)

    def test_query_action_script(self, hub: TelemetryHub):
        context = ActionContext.for_incident(make_incident(), hub)
        action = QueryAction("script", source="script", script=lambda ctx: {"answer": "42"})
        result = action.execute(context)
        assert result.output["script.answer"] == "42"

    def test_query_action_script_missing_callable(self, hub: TelemetryHub):
        context = ActionContext.for_incident(make_incident(), hub)
        with pytest.raises(ValueError):
            QueryAction("script", source="script").execute(context)

    def test_mitigation_action(self, hub: TelemetryHub):
        context = ActionContext.for_incident(make_incident(), hub)
        result = MitigationAction("fix", "Restart service", engage_team="Store").execute(context)
        assert result.mitigation == "Restart service"
        assert result.output["fix.engage_team"] == "Store"


class TestHandlerGraph:
    def test_builder_and_validation(self):
        handler = (
            HandlerBuilder("DiskSpaceLow", "disk")
            .add("a", QueryAction("q1", source="events"), {"default": "b"})
            .add("b", MitigationAction("m", "fix it"))
            .build()
        )
        assert handler.root == "a"
        assert handler.reachable_nodes() == {"a", "b"}

    def test_duplicate_node_rejected(self):
        builder = HandlerBuilder("X", "x").add("a", MitigationAction("m", "s"))
        with pytest.raises(HandlerValidationError):
            builder.add("a", MitigationAction("m2", "s2"))

    def test_unknown_edge_target_rejected(self):
        handler = IncidentHandler(
            alert_type="X",
            name="x",
            root="a",
            nodes={"a": HandlerNode("a", MitigationAction("m", "s"), {"default": "ghost"})},
        )
        with pytest.raises(HandlerValidationError):
            handler.validate()

    def test_cycle_rejected(self):
        nodes = {
            "a": HandlerNode("a", QueryAction("q", source="events"), {"default": "b"}),
            "b": HandlerNode("b", QueryAction("q2", source="events"), {"default": "a"}),
        }
        handler = IncidentHandler(alert_type="X", name="x", root="a", nodes=nodes)
        with pytest.raises(HandlerValidationError):
            handler.validate()

    def test_missing_root_rejected(self):
        handler = IncidentHandler(alert_type="X", name="x", root="ghost", nodes={})
        with pytest.raises(HandlerValidationError):
            handler.validate()

    def test_linear_handler(self):
        handler = linear_handler("X", "x", [QueryAction("q", source="events"), MitigationAction("m", "s")])
        assert len(handler.nodes) == 2
        with pytest.raises(HandlerValidationError):
            linear_handler("X", "x", [])

    def test_describe_lists_nodes(self):
        handler = delivery_backlog_handler()
        description = handler.describe()
        assert "determine_issue_type" in description


class TestRegistry:
    def test_register_assigns_versions(self):
        registry = HandlerRegistry()
        first = registry.register(linear_handler("X", "x1", [MitigationAction("m", "s")]))
        second = registry.register(linear_handler("X", "x2", [MitigationAction("m", "s")]))
        assert (first.version, second.version) == (1, 2)
        assert registry.latest("X").name == "x2"
        assert len(registry.history("X")) == 2

    def test_match_returns_none_for_unknown(self):
        assert HandlerRegistry().match("Nope") is None

    def test_latest_raises_when_missing(self):
        with pytest.raises(HandlerNotFoundError):
            HandlerRegistry().latest("Nope")

    def test_disable_version(self):
        registry = HandlerRegistry()
        registry.register(linear_handler("X", "x1", [MitigationAction("m", "s")]))
        registry.set_enabled("X", 1, False)
        assert registry.match("X") is None
        assert registry.latest("X", enabled_only=False).name == "x1"
        with pytest.raises(HandlerNotFoundError):
            registry.set_enabled("X", 9, True)

    def test_default_registry_covers_all_alert_types(self, registry):
        assert set(registry.alert_types()) == set(ALERT_TYPES)
        assert all(registry.match(alert_type) is not None for alert_type in ALERT_TYPES)

    def test_action_reuse_counts(self, registry):
        counts = registry.action_reuse_counts()
        assert counts  # at least some actions are shared across handlers
        # Keys follow first appearance, so the example prints one order
        # whatever the interpreter's string-hash seed.
        orders = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            run = subprocess.run(
                [sys.executable, "-c", REUSE_SCRIPT, EXAMPLE],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            orders.append(run.stdout)
        assert orders[0] == orders[1]

    def test_action_reuse_counts_follow_first_appearance(self):
        registry = HandlerRegistry()
        registry.register(
            linear_handler(
                "A", "a",
                [QueryAction("zeta", source="events"), QueryAction("alpha", source="events"),
                 QueryAction("zeta", source="metrics")],
            )
        )
        registry.register(
            linear_handler(
                "B", "b",
                [QueryAction("mid", source="events"), QueryAction("alpha", source="events")],
            )
        )
        counts = registry.action_reuse_counts()
        # A handler naming an action twice reuses it once.
        assert list(counts.items()) == [("zeta", 1), ("alpha", 2), ("mid", 1)]


class TestSerialization:
    def test_round_trip_builtin_handlers(self, registry):
        for alert_type in registry.alert_types():
            handler = registry.latest(alert_type)
            document = handler_to_json(handler)
            restored = handler_from_json(document)
            assert restored.alert_type == handler.alert_type
            assert set(restored.nodes) == set(handler.nodes)
            assert restored.root == handler.root

    def test_bad_json_raises(self):
        from repro.handlers import SerializationError

        with pytest.raises(SerializationError):
            handler_from_json("{not json")

    def test_script_action_not_serializable(self):
        from repro.handlers import SerializationError, handler_to_dict

        handler = linear_handler(
            "X", "x", [QueryAction("q", source="script", script=lambda ctx: {})]
        )
        with pytest.raises(SerializationError):
            handler_to_dict(handler)

    def test_unknown_action_kind_raises(self):
        from repro.handlers import SerializationError, handler_from_dict, handler_to_dict

        handler = linear_handler(
            "X", "x", [ScopeSwitchAction("switch", target_scope=AlertScope.MACHINE)]
        )
        document = handler_to_dict(handler)
        document["nodes"]["step-01"]["action"]["kind"] = "teleport"
        with pytest.raises(SerializationError, match="unknown action kind"):
            handler_from_dict(document)

    def test_unknown_classifier_raises(self):
        from repro.handlers import SerializationError, handler_from_dict, handler_to_dict

        handler = linear_handler("X", "x", [QueryAction("q", source="events")])
        document = handler_to_dict(handler)
        document["nodes"]["step-01"]["action"]["classify"] = "never-registered"
        with pytest.raises(SerializationError, match="unknown classifier"):
            handler_from_dict(document)

    def test_missing_field_raises(self):
        from repro.handlers import SerializationError, handler_from_dict, handler_to_dict

        handler = linear_handler("X", "x", [QueryAction("q", source="events")])
        document = handler_to_dict(handler)
        del document["root"]
        with pytest.raises(SerializationError, match="missing field"):
            handler_from_dict(document)

    @pytest.mark.parametrize(
        "malform",
        [
            lambda doc: doc.update(version="v2"),
            lambda doc: doc.update(nodes=[]),
            lambda doc: doc.update(max_steps=None),
            lambda doc: doc["nodes"]["step-01"]["action"].update(target_scope="galaxy"),
        ],
        ids=["version-v2", "nodes-list", "max-steps-null", "unknown-scope"],
    )
    def test_malformed_document_raises_serialization_error(self, malform):
        import json

        from repro.handlers import SerializationError, handler_to_dict

        handler = linear_handler(
            "X", "x", [ScopeSwitchAction("switch", target_scope=AlertScope.MACHINE)]
        )
        document = handler_to_dict(handler)
        assert handler_from_json(json.dumps(document)).root == "step-01"
        malform(document)
        with pytest.raises(SerializationError):
            handler_from_json(json.dumps(document))


class TestExecution:
    def test_execute_collects_sections_and_outputs(self, warm_service: TransportService, registry):
        outcome = warm_service.inject_and_detect("FullDisk")
        alert = outcome.primary_alert
        assert alert is not None
        incident = Incident.from_alert("INC-EX", alert)
        handler = registry.match(alert.alert_type)
        result = HandlerExecutor(warm_service.hub).execute(handler, incident)
        assert result.step_count >= 3
        assert len(result.report) >= 3
        assert incident.action_output  # attached back onto the incident
        assert not incident.diagnostic.is_empty()
        # A resolved report is kept whole by whoever holds its future: it
        # holds what was collected once, in records without a ``__dict__``.
        assert incident.action_output is result.action_output
        assert incident.diagnostic is result.report
        assert Incident.from_alert("INC-EX-2", alert).title is incident.title
        for record in (result.steps[0], result.report.sections[0]):
            assert not hasattr(record, "__dict__")

    def test_figure5_handler_runs_over_backlog(self, registry):
        service = TransportService(seed=77)
        service.warm_up(hours=0.5)
        outcome = service.inject_and_detect("DeliveryHang")
        alert = outcome.primary_alert
        assert alert is not None and alert.alert_type == "DeliveryQueueBacklog"
        incident = Incident.from_alert("INC-F5", alert)
        result = HandlerExecutor(service.hub).execute(
            delivery_backlog_handler(), incident
        )
        executed = [step.action_name for step in result.steps]
        assert executed[0] == "determine_issue_type"
        assert result.elapsed_seconds >= 0.0

    def test_max_steps_guard(self, hub: TelemetryHub):
        from repro.handlers import HandlerExecutionError

        handler = linear_handler("X", "x", [QueryAction("q", source="events")])
        handler.max_steps = 0
        with pytest.raises(HandlerExecutionError):
            HandlerExecutor(hub).execute(handler, make_incident(alert_type="X"))
