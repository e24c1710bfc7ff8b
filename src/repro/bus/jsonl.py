"""JSONL codec for recorded alert/feedback traffic.

A recording is a JSON-Lines file: one header record, then one record per
event in time order.  Offsets are seconds since the recording's start on
the *recording ingestor's* clock — a replay at speed ``s`` schedules event
``e`` at ``t0 + e.offset / s`` on the *replaying* clock, while every
batching decision stays on the recorded (unscaled) timeline, which is what
makes replays bit-identical at every speed (see
:class:`repro.bus.BusReplayer`).

Record shapes (all JSON is emitted with sorted keys and compact
separators, so a regenerated recording is byte-identical)::

    {"kind": "header", "version": 1, "meta": {...}}
    {"kind": "alert", "offset": 12.5, "alert": {...Alert.to_dict()...}}
    {"kind": "feedback", "offset": 60.0, "category": "FullDisk",
     "incident": {...lossless incident dict...}}

A recording is one stream into one ingestor: an alert record that
carries a ``tenant`` key (a multi-tenant capture) is refused rather than
replayed as one stream.

The alert payload round-trips through :meth:`repro.monitors.Alert.to_dict`
/ :meth:`~repro.monitors.Alert.from_dict` (enum scope, attributes,
severity — lossless by construction); incidents carry every field the
feedback path can touch, including the collected diagnostic sections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from ..incidents import DiagnosticReport, DiagnosticSection, Incident, Severity
from ..monitors import Alert, AlertScope

#: Recording format version; bump on any incompatible record-shape change.
FORMAT_VERSION = 1


def _dumps(obj: Dict[str, object]) -> str:
    """Stable JSON: sorted keys, compact separators, no trailing spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------- incidents
def incident_to_dict(incident: Incident) -> Dict[str, object]:
    """Lossless JSON-serializable form of an incident (see ``from_dict``)."""
    return {
        "incident_id": incident.incident_id,
        "title": incident.title,
        "created_at": incident.created_at,
        "alert_type": incident.alert_type,
        "scope": incident.scope.value,
        "severity": int(incident.severity),
        "forest": incident.forest,
        "machine": incident.machine,
        "owning_team": incident.owning_team,
        "owning_tenant": incident.owning_tenant,
        "alert_message": incident.alert_message,
        "diagnostic": [
            {"title": s.title, "content": s.content, "source": s.source}
            for s in incident.diagnostic.sections
        ],
        "summary": incident.summary,
        "action_output": dict(incident.action_output),
        "category": incident.category,
        "predicted_category": incident.predicted_category,
        "explanation": incident.explanation,
    }


def incident_from_dict(payload: Dict[str, object]) -> Incident:
    """Rebuild an incident from :func:`incident_to_dict` — exact round trip."""
    sections = [
        DiagnosticSection(
            title=str(s["title"]),
            content=str(s["content"]),
            source=str(s.get("source", "")),
        )
        for s in payload.get("diagnostic") or []
    ]
    return Incident(
        incident_id=str(payload["incident_id"]),
        title=str(payload["title"]),
        created_at=float(payload["created_at"]),
        alert_type=str(payload["alert_type"]),
        scope=AlertScope(payload["scope"]),
        severity=Severity(int(payload["severity"])),
        forest=str(payload.get("forest", "")),
        machine=str(payload.get("machine", "")),
        owning_team=str(payload.get("owning_team", "Transport")),
        owning_tenant=str(payload.get("owning_tenant", "")),
        alert_message=str(payload.get("alert_message", "")),
        diagnostic=DiagnosticReport(sections=sections),
        summary=str(payload.get("summary", "")),
        action_output=dict(payload.get("action_output") or {}),
        category=payload.get("category"),
        predicted_category=payload.get("predicted_category"),
        explanation=str(payload.get("explanation", "")),
    )


# ------------------------------------------------------------------ events
@dataclass(frozen=True)
class AlertEvent:
    """One recorded alert submission at ``offset`` seconds into the stream."""

    offset: float
    alert: Alert

    def to_record(self) -> Dict[str, object]:
        return {
            "kind": "alert",
            "offset": self.offset,
            "alert": self.alert.to_dict(),
        }


@dataclass(frozen=True)
class FeedbackEvent:
    """One recorded OCE feedback call (confirmed label) at ``offset`` seconds."""

    offset: float
    incident: Incident
    category: str

    def to_record(self) -> Dict[str, object]:
        return {
            "kind": "feedback",
            "offset": self.offset,
            "incident": incident_to_dict(self.incident),
            "category": self.category,
        }


BusEvent = Union[AlertEvent, FeedbackEvent]


def event_from_record(record: Dict[str, object]) -> BusEvent:
    """Decode one non-header JSONL record into its event."""
    kind = record.get("kind")
    if kind == "alert":
        if "tenant" in record:
            raise ValueError(
                "alert record carries a 'tenant' key: multi-tenant captures "
                "cannot replay as one stream"
            )
        return AlertEvent(
            offset=float(record["offset"]),
            alert=Alert.from_dict(record["alert"]),
        )
    if kind == "feedback":
        return FeedbackEvent(
            offset=float(record["offset"]),
            incident=incident_from_dict(record["incident"]),
            category=str(record["category"]),
        )
    raise ValueError(f"unknown recording record kind: {kind!r}")


# --------------------------------------------------------------- recording
@dataclass
class Recording:
    """A decoded traffic recording: header metadata plus time-ordered events."""

    meta: Dict[str, object] = field(default_factory=dict)
    events: List[BusEvent] = field(default_factory=list)

    @property
    def alerts(self) -> List[AlertEvent]:
        return [e for e in self.events if isinstance(e, AlertEvent)]

    @property
    def feedbacks(self) -> List[FeedbackEvent]:
        return [e for e in self.events if isinstance(e, FeedbackEvent)]

    @property
    def duration_seconds(self) -> float:
        """Offset of the last event (0.0 for an empty recording)."""
        return max((e.offset for e in self.events), default=0.0)

    def dumps(self) -> str:
        """The full JSONL text (header + events), byte-stable."""
        lines = [
            _dumps(
                {"kind": "header", "version": FORMAT_VERSION, "meta": self.meta}
            )
        ]
        lines.extend(_dumps(event.to_record()) for event in self.events)
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Recording":
        meta: Dict[str, object] = {}
        events: List[BusEvent] = []
        saw_header = False
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"recording line {line_number} is not valid JSON: {exc}"
                ) from exc
            if record.get("kind") == "header":
                version = record.get("version")
                if version != FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported recording version {version!r} "
                        f"(expected {FORMAT_VERSION})"
                    )
                meta = dict(record.get("meta") or {})
                saw_header = True
                continue
            events.append(event_from_record(record))
        if not saw_header:
            raise ValueError("recording has no header record")
        # Events are written in time order; a stable sort tolerates
        # hand-edited fixtures while preserving same-offset file order
        # (which is the submission order the replay re-enacts).
        events.sort(key=lambda event: event.offset)
        return cls(meta=meta, events=events)

    @classmethod
    def load(cls, path: str) -> "Recording":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())


def build_recording(
    events: Iterable[BusEvent], meta: Optional[Dict[str, object]] = None
) -> Recording:
    """A recording from loose events: stably time-sorted, counted into meta."""
    ordered = sorted(events, key=lambda event: event.offset)
    full_meta: Dict[str, object] = dict(meta or {})
    full_meta.setdefault(
        "alerts", sum(1 for e in ordered if isinstance(e, AlertEvent))
    )
    full_meta.setdefault(
        "feedbacks", sum(1 for e in ordered if isinstance(e, FeedbackEvent))
    )
    return Recording(meta=full_meta, events=ordered)
