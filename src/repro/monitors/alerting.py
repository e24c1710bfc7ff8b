"""Alert model and routing.

Alerts are what the detection stage produces and what the collection stage
consumes: "the root node in the incident handler is the incident alert type,
which is gathered from the system monitor" (paper Section 4.1.1).  An alert
type categorises alerts by the specific monitor that raised them; incidents
sharing an alert type exhibit similar symptoms but may have different root
causes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class AlertScope(str, Enum):
    """Blast radius of an alert (paper Table 1 "Scope" column)."""

    MACHINE = "machine"
    FOREST = "forest"
    SERVICE = "service"

    def narrower(self) -> "AlertScope":
        """Return the next narrower scope (machine is already the narrowest)."""
        order = [AlertScope.SERVICE, AlertScope.FOREST, AlertScope.MACHINE]
        index = order.index(self)
        return order[min(index + 1, len(order) - 1)]

    def wider(self) -> "AlertScope":
        """Return the next wider scope (service is already the widest)."""
        order = [AlertScope.SERVICE, AlertScope.FOREST, AlertScope.MACHINE]
        index = order.index(self)
        return order[max(index - 1, 0)]


#: Alert types used by the simulated Transport service.  Each maps to one
#: built-in incident handler (repro.handlers.builtin).
ALERT_TYPES = (
    "OutboundProxyConnectFailure",
    "DeliveryQueueBacklog",
    "AuthTokenFailure",
    "SmtpAvailabilityDrop",
    "ConnectionLimitExceeded",
    "ProcessCrashSpike",
    "PoisonMessageDetected",
    "DiskSpaceLow",
    "SubmissionQueueStuck",
    "PriorityQueueDelay",
)


@dataclass(frozen=True)
class Alert:
    """An alert raised by a monitor or probe.

    Attributes:
        alert_id: Unique identifier.
        alert_type: Monitor-specific type, the handler-matching key.
        scope: Blast radius of the alert.
        timestamp: When the alert fired (seconds since epoch).
        machine: Machine the alert points at (may be empty for forest scope).
        forest: Forest the alert points at.
        message: Monitor-produced description of the symptom.
        severity: 1 (highest) .. 4 (lowest).
        attributes: Extra structured monitor output.
    """

    alert_id: str
    alert_type: str
    scope: AlertScope
    timestamp: float
    machine: str
    forest: str
    message: str
    severity: int = 3
    attributes: Dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line rendering used in incident titles and prompt AlertInfo."""
        target = self.machine if self.scope is AlertScope.MACHINE else self.forest
        return (
            f"[sev{self.severity}] {self.alert_type} at {self.scope.value} "
            f"{target}: {self.message}"
        )

    # ----------------------------------------------------------------- codec
    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-serializable form (see :meth:`from_dict`).

        The enum scope flattens to its string value; ``attributes`` is
        copied so mutating the dict never reaches back into the (frozen)
        alert.  This is the wire format of the record/replay alert bus
        (:mod:`repro.bus.jsonl`).
        """
        return {
            "alert_id": self.alert_id,
            "alert_type": self.alert_type,
            "scope": self.scope.value,
            "timestamp": self.timestamp,
            "machine": self.machine,
            "forest": self.forest,
            "message": self.message,
            "severity": self.severity,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Alert":
        """Rebuild an alert from :meth:`to_dict` output — exact round trip."""
        return cls(
            alert_id=str(payload["alert_id"]),
            alert_type=str(payload["alert_type"]),
            scope=AlertScope(payload["scope"]),
            timestamp=float(payload["timestamp"]),
            machine=str(payload["machine"]),
            forest=str(payload["forest"]),
            message=str(payload["message"]),
            severity=int(payload.get("severity", 3)),
            attributes=dict(payload.get("attributes") or {}),
        )


class AlertRouter:
    """Routes and de-duplicates alerts before they become incidents.

    Duplicate suppression mirrors real alerting pipelines: the same alert
    type for the same scope target within ``dedup_window`` seconds is
    considered a duplicate of the earlier alert and is suppressed.
    """

    def __init__(self, dedup_window: float = 900.0) -> None:
        self.dedup_window = dedup_window
        self._last_seen: Dict[tuple, float] = {}
        self._suppressed = 0
        self._counter = itertools.count(1)
        self._routed: List[Alert] = []

    @property
    def suppressed_count(self) -> int:
        """Number of alerts suppressed as duplicates so far."""
        return self._suppressed

    @property
    def routed(self) -> List[Alert]:
        """Alerts that passed de-duplication, in arrival order."""
        return list(self._routed)

    def next_alert_id(self) -> str:
        """Allocate a fresh alert id."""
        return f"alert-{next(self._counter):06d}"

    def submit(self, alert: Alert) -> Optional[Alert]:
        """Submit an alert; return it if routed, or None if suppressed."""
        key = (alert.alert_type, alert.scope, alert.machine or alert.forest)
        last = self._last_seen.get(key)
        if last is not None and alert.timestamp - last < self.dedup_window:
            self._suppressed += 1
            return None
        self._last_seen[key] = alert.timestamp
        self._routed.append(alert)
        return alert
