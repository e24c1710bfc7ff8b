"""Round-trip and format tests for the recording JSONL codec."""

from __future__ import annotations

import pytest

from repro.bus import (
    FORMAT_VERSION,
    AlertEvent,
    FeedbackEvent,
    Recording,
    build_recording,
    event_from_record,
    incident_from_dict,
    incident_to_dict,
)
from repro.incidents import Incident, Severity
from repro.monitors import Alert, AlertScope


def make_alert(index: int = 0, **overrides) -> Alert:
    fields = dict(
        alert_id=f"AL-BUS-{index:05d}",
        alert_type="HighCPU",
        scope=AlertScope.MACHINE,
        timestamp=1000.0 + index,
        machine="EXCH-03",
        forest="forest-02",
        message=f"cpu pegged on probe {index}",
        severity=2,
        attributes={"probe": str(index), "region": "emea"},
    )
    fields.update(overrides)
    return Alert(**fields)


class TestAlertRoundTrip:
    def test_to_dict_carries_every_field(self):
        alert = make_alert(7)
        payload = alert.to_dict()
        assert payload["alert_id"] == "AL-BUS-00007"
        assert payload["scope"] == "machine"  # enum flattened to its value
        assert payload["severity"] == 2
        assert payload["attributes"] == {"probe": "7", "region": "emea"}

    def test_round_trip_is_lossless(self):
        alert = make_alert(3, scope=AlertScope.FOREST, severity=5)
        clone = Alert.from_dict(alert.to_dict())
        assert clone == alert
        assert clone.scope is AlertScope.FOREST
        assert clone.attributes == alert.attributes

    def test_from_dict_defaults_optional_fields(self):
        minimal = {
            "alert_id": "AL-MIN",
            "alert_type": "HighCPU",
            "scope": "forest",
            "timestamp": 1.0,
            "machine": "",
            "forest": "f",
            "message": "m",
        }
        alert = Alert.from_dict(minimal)
        assert alert.severity == 3
        assert alert.attributes == {}

    def test_to_dict_snapshots_attributes(self):
        """Mutating the source alert after to_dict must not alias the dict."""
        alert = make_alert(1)
        payload = alert.to_dict()
        alert.attributes["probe"] = "mutated"
        assert payload["attributes"]["probe"] == "1"


class TestIncidentRoundTrip:
    def test_round_trip_is_lossless(self):
        incident = Incident.from_alert("OCE-00001", make_alert(4))
        incident.diagnostic.add("probe", "cpu 99%", source="metrics")
        incident.summary = "cpu saturation on EXCH-03"
        incident.action_output["probe"] = "ran"
        incident.category = "NoisyNeighbour"
        incident.predicted_category = "NoisyNeighbour"
        incident.explanation = "matches incident OCE-00000"
        clone = incident_from_dict(incident_to_dict(incident))
        assert incident_to_dict(clone) == incident_to_dict(incident)
        assert clone.severity is Severity(incident.severity)
        assert clone.scope is incident.scope
        assert [s.title for s in clone.diagnostic.sections] == ["probe"]

    def test_unlabelled_incident_round_trips_none_category(self):
        incident = Incident.from_alert("OCE-00002", make_alert(5))
        clone = incident_from_dict(incident_to_dict(incident))
        assert clone.category is None
        assert clone.predicted_category is None


class TestRecordingFormat:
    def build(self) -> Recording:
        events = [
            AlertEvent(offset=0.0, alert=make_alert(0)),
            FeedbackEvent(
                offset=30.5,
                incident=Incident.from_alert("OCE-00001", make_alert(0)),
                category="NoisyNeighbour",
            ),
            AlertEvent(offset=12.25, alert=make_alert(1)),
        ]
        return build_recording(events, meta={"name": "unit"})

    def test_dumps_loads_is_byte_identical(self):
        recording = self.build()
        text = recording.dumps()
        assert Recording.loads(text).dumps() == text

    def test_build_recording_sorts_and_counts(self):
        recording = self.build()
        assert [event.offset for event in recording.events] == [0.0, 12.25, 30.5]
        assert recording.meta["alerts"] == 2
        assert recording.meta["feedbacks"] == 1
        assert recording.duration_seconds == 30.5
        assert len(recording.alerts) == 2
        assert len(recording.feedbacks) == 1

    def test_same_offset_preserves_submission_order(self):
        """The stable sort keeps same-instant events in capture order."""
        events = [
            AlertEvent(offset=5.0, alert=make_alert(10)),
            AlertEvent(offset=5.0, alert=make_alert(11)),
            AlertEvent(offset=5.0, alert=make_alert(12)),
        ]
        recording = build_recording(events)
        ids = [event.alert.alert_id for event in recording.alerts]
        assert ids == ["AL-BUS-00010", "AL-BUS-00011", "AL-BUS-00012"]
        reloaded = Recording.loads(recording.dumps())
        assert [e.alert.alert_id for e in reloaded.alerts] == ids

    def test_save_load_round_trip(self, tmp_path):
        recording = self.build()
        path = tmp_path / "unit.jsonl"
        recording.save(str(path))
        assert Recording.load(str(path)).dumps() == recording.dumps()

    def test_header_is_first_line_with_version(self):
        import json

        first = json.loads(self.build().dumps().splitlines()[0])
        assert first == {"kind": "header", "version": FORMAT_VERSION, "meta": {"name": "unit", "alerts": 2, "feedbacks": 1}}

    def test_missing_header_is_rejected(self):
        body = self.build().dumps().splitlines()[1:]
        with pytest.raises(ValueError, match="no header"):
            Recording.loads("\n".join(body))

    def test_wrong_version_is_rejected(self):
        text = self.build().dumps().replace(
            f'"version":{FORMAT_VERSION}', f'"version":{FORMAT_VERSION + 1}'
        )
        with pytest.raises(ValueError, match="unsupported recording version"):
            Recording.loads(text)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown recording record kind"):
            event_from_record({"kind": "mystery", "offset": 0.0})

    def test_tenant_tagged_alert_is_rejected(self):
        """A multi-tenant capture must not replay silently as one stream."""
        import json

        lines = self.build().dumps().splitlines()
        record = json.loads(lines[1])
        assert record["kind"] == "alert"
        record["tenant"] = "alpha"
        lines[1] = json.dumps(record)
        with pytest.raises(ValueError, match="'tenant'"):
            Recording.loads("\n".join(lines))

    @pytest.mark.parametrize("tenant", ["", None], ids=["empty", "null"])
    def test_a_tenant_key_is_refused_whatever_its_value(self, tenant):
        """The key itself marks a multi-tenant capture, even when empty."""
        record = AlertEvent(offset=1.0, alert=make_alert()).to_record()
        record["tenant"] = tenant
        with pytest.raises(ValueError, match="'tenant'"):
            event_from_record(record)

    def test_invalid_json_line_is_reported_with_line_number(self):
        text = self.build().dumps() + "{not json\n"
        with pytest.raises(ValueError, match="line 5 is not valid JSON"):
            Recording.loads(text)
