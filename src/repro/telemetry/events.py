"""System event substrate.

Events capture discrete operational happenings that are neither logs nor
metrics: process crashes, service restarts, deployments, configuration
changes.  Several of the paper's root-cause categories (CodeRegression,
FullDisk, AuthCertIssue) manifest partly through such events, and the
handler query actions ask questions like "was the delivery service restarted
recently?" (Figure 5) that this store answers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


#: Canonical event kinds used across the simulator and handlers.
EVENT_KINDS = (
    "process_crash",
    "service_restart",
    "deployment",
    "config_change",
    "certificate_rotation",
    "disk_full",
    "tenant_created",
    "security_alert",
)


@dataclass(frozen=True)
class SystemEvent:
    """A discrete operational event.

    Attributes:
        timestamp: Seconds since the simulation epoch.
        kind: Event kind, normally one of :data:`EVENT_KINDS`.
        machine: Machine affected by the event.
        component: Component or service involved.
        detail: Human-readable description.
        attributes: Optional structured payload.
    """

    timestamp: float
    kind: str
    machine: str
    component: str
    detail: str
    attributes: Dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        """Render the event as a single line."""
        return (
            f"[{self.timestamp:10.1f}] EVENT {self.kind} machine={self.machine} "
            f"component={self.component}: {self.detail}"
        )


class EventStore:
    """Time-indexed store of :class:`SystemEvent` records.

    ``writes`` counts insertions, bumped once the event is in place: a
    result read while it showed ``n`` still holds while it shows ``n``.
    The store has no lock, so it takes one writer at a time (the
    simulator's).
    """

    def __init__(self) -> None:
        self._events: List[SystemEvent] = []
        self._timestamps: List[float] = []
        self.writes = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SystemEvent]:
        return iter(self._events)

    def add(self, event: SystemEvent) -> None:
        """Insert an event keeping the store sorted by timestamp."""
        index = bisect.bisect_right(self._timestamps, event.timestamp)
        self._timestamps.insert(index, event.timestamp)
        self._events.insert(index, event)
        self.writes += 1

    def extend(self, events: Iterable[SystemEvent]) -> None:
        """Insert many events."""
        for event in events:
            self.add(event)

    def query(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        kind: Optional[str] = None,
        machine: Optional[str] = None,
        component: Optional[str] = None,
    ) -> List[SystemEvent]:
        """Return events matching the window and optional filters."""
        lo = 0 if start is None else bisect.bisect_left(self._timestamps, start)
        hi = (
            len(self._timestamps)
            if end is None
            else bisect.bisect_right(self._timestamps, end)
        )
        selected = []
        for event in self._events[lo:hi]:
            if kind is not None and event.kind != kind:
                continue
            if machine is not None and event.machine != machine:
                continue
            if component is not None and event.component != component:
                continue
            selected.append(event)
        return selected

    def count(
        self,
        kind: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> int:
        """Count events of a kind inside a window."""
        return len(self.query(start=start, end=end, kind=kind))

    def last(self, kind: str, before: Optional[float] = None) -> Optional[SystemEvent]:
        """Return the most recent event of ``kind`` at or before ``before``."""
        candidates = self.query(end=before, kind=kind)
        return candidates[-1] if candidates else None

    def recent_restarts(
        self, component: str, now: float, window: float = 3600.0
    ) -> List[SystemEvent]:
        """Service restarts for ``component`` in the last ``window`` seconds.

        This is the question the Figure 5 handler asks ("Delivery is
        Restarted Recently?").
        """
        return self.query(
            start=now - window, end=now, kind="service_restart", component=component
        )

    def crash_counts_by_machine(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Dict[str, int]:
        """Number of process crashes per machine inside the window."""
        counts: Dict[str, int] = {}
        for event in self.query(start=start, end=end, kind="process_crash"):
            counts[event.machine] = counts.get(event.machine, 0) + 1
        return counts

    def deployments_between(self, start: float, end: float) -> List[SystemEvent]:
        """Deployments (code rollouts) that happened inside the window."""
        return self.query(start=start, end=end, kind="deployment")

    def config_changes_between(self, start: float, end: float) -> List[SystemEvent]:
        """Configuration changes that happened inside the window."""
        return self.query(start=start, end=end, kind="config_change")
