"""Incident data model.

An incident is "any event that disrupts normal service operations or causes
degradation in the quality of services" (paper Section 2.1).  The model here
carries everything both pipeline stages need: the triggering alert
information (AlertInfo in the paper's Table 3 ablation), the collected
diagnostic information (DiagnosticInfo), the handler action outputs
(ActionOutput), and the ground-truth root-cause category label assigned by
on-call engineers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Dict, List, Optional

from ..monitors import Alert, AlertScope


SECONDS_PER_DAY = 86400.0


class Severity(IntEnum):
    """Incident severity; 1 is the most severe (paper Table 1 "Sev." column)."""

    SEV1 = 1
    SEV2 = 2
    SEV3 = 3
    SEV4 = 4


@dataclass(frozen=True)
class RootCauseCategory:
    """A root-cause category label with its catalogue metadata."""

    name: str
    description: str = ""
    is_novel: bool = False

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(slots=True)
class DiagnosticSection:
    """One titled section of collected diagnostic information.

    Sections correspond to individual handler actions: a probe result, a
    metric table, a grouped stack trace, an event list.  Slotted: every
    report holds several for as long as it is kept.
    """

    title: str
    content: str
    source: str = ""

    def render(self) -> str:
        """Render the section with its title header."""
        header = f"== {self.title} =="
        if self.source:
            header += f" (source: {self.source})"
        return f"{header}\n{self.content}"


@dataclass
class DiagnosticReport:
    """The full multi-source diagnostic information for one incident."""

    sections: List[DiagnosticSection] = field(default_factory=list)

    def add(self, title: str, content: str, source: str = "") -> None:
        """Append a section."""
        self.sections.append(DiagnosticSection(title=title, content=content, source=source))

    def render(self) -> str:
        """Render all sections as one text block (the LLM's DiagnosticInfo)."""
        return "\n\n".join(section.render() for section in self.sections)

    def is_empty(self) -> bool:
        """True when no diagnostic information was collected."""
        return not self.sections

    def __len__(self) -> int:
        return len(self.sections)


@dataclass
class Incident:
    """A cloud incident flowing through the RCACopilot pipeline.

    Attributes:
        incident_id: Unique identifier (e.g. ``INC-000123``).
        title: Short human-readable title.
        created_at: Creation time in seconds since the corpus epoch.
        alert_type: Monitor alert type (the handler matching key).
        scope: Alert scope.
        severity: Incident severity.
        forest: Forest the incident points at.
        machine: Machine the incident points at (may be empty).
        owning_team: Team the incident was routed to.
        owning_tenant: Tenant identifier associated with the incident.
        alert_message: The symptom description from the monitor.
        diagnostic: Collected multi-source diagnostic information.
        summary: LLM summary of the diagnostic information (filled by stage 2).
        action_output: Key/value outputs of executed handler actions.
        category: Ground-truth root-cause category (None until labelled).
        predicted_category: Category predicted by the pipeline (if any).
        explanation: Prediction explanation produced by the LLM.
    """

    incident_id: str
    title: str
    created_at: float
    alert_type: str
    scope: AlertScope
    severity: Severity
    forest: str = ""
    machine: str = ""
    owning_team: str = "Transport"
    owning_tenant: str = ""
    alert_message: str = ""
    diagnostic: DiagnosticReport = field(default_factory=DiagnosticReport)
    summary: str = ""
    action_output: Dict[str, str] = field(default_factory=dict)
    category: Optional[str] = None
    predicted_category: Optional[str] = None
    explanation: str = ""

    # ------------------------------------------------------------- view helpers
    @property
    def created_day(self) -> float:
        """Creation time expressed in days since the corpus epoch."""
        return self.created_at / SECONDS_PER_DAY

    def alert_info(self) -> str:
        """The AlertInfo view used by the Table 3 prompt-context ablation."""
        target = self.machine if self.scope is AlertScope.MACHINE else self.forest
        return (
            f"AlertType: {self.alert_type}\n"
            f"AlertScope: {self.scope.value} ({target})\n"
            f"Severity: {int(self.severity)}\n"
            f"AlertMessage: {self.alert_message}"
        )

    def diagnostic_info(self) -> str:
        """The raw DiagnosticInfo view (all collected sections)."""
        return self.diagnostic.render()

    def action_output_info(self) -> str:
        """The ActionOutput view: hashed key/value pairs of executed actions."""
        if not self.action_output:
            return ""
        return "\n".join(f"{key}: {value}" for key, value in sorted(self.action_output.items()))

    def best_text(self) -> str:
        """The most informative text available for embedding/retrieval.

        Prefers the summarized diagnostic information, then the raw
        diagnostic report, then the alert info — mirroring the paper's
        finding that summarized DiagnosticInfo is the best single context.
        """
        if self.summary:
            return self.summary
        if not self.diagnostic.is_empty():
            return self.diagnostic_info()
        return self.alert_info()

    def is_labelled(self) -> bool:
        """True when on-call engineers have assigned a ground-truth category."""
        return self.category is not None

    def with_prediction(self, category: str, explanation: str) -> "Incident":
        """Return a copy of the incident carrying a prediction."""
        return replace(self, predicted_category=category, explanation=explanation)

    @classmethod
    def from_alert(
        cls,
        incident_id: str,
        alert: Alert,
        owning_team: str = "Transport",
        owning_tenant: str = "",
    ) -> "Incident":
        """Create an incident from a routed alert (the parsing step in Fig. 4)."""
        return cls(
            incident_id=incident_id,
            title=sys.intern(alert.summary()),
            created_at=alert.timestamp,
            alert_type=alert.alert_type,
            scope=alert.scope,
            severity=Severity(min(max(alert.severity, 1), 4)),
            forest=alert.forest,
            machine=alert.machine,
            owning_team=owning_team,
            owning_tenant=owning_tenant,
            alert_message=alert.message,
        )
