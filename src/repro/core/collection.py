"""Stage 1: diagnostic information collection.

Parses an incoming alert into an incident, matches it to the handler
registered for its alert type, executes the handler over the telemetry hub,
and attaches the resulting diagnostic report and action outputs to the
incident (paper Section 4.1, Figure 4 left half).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..handlers import CoalescingScope, ExecutionResult, HandlerExecutor, HandlerRegistry
from ..incidents import Incident
from ..monitors import Alert
from ..telemetry import TelemetryHub
from .config import CollectionConfig
from .errors import CollectionError, NoHandlerError


@dataclass
class CollectionOutcome:
    """Result of running the collection stage for one incident."""

    incident: Incident
    matched_handler: Optional[str]
    execution: Optional[ExecutionResult]

    @property
    def collected(self) -> bool:
        """True when a handler ran and produced at least one section."""
        return self.execution is not None and len(self.execution.report) > 0


class CollectionStage:
    """Matches incidents to handlers and executes them."""

    def __init__(
        self,
        registry: HandlerRegistry,
        hub: TelemetryHub,
        config: Optional[CollectionConfig] = None,
    ) -> None:
        self.registry = registry
        self.hub = hub
        self.config = config or CollectionConfig()
        self._executor = HandlerExecutor(
            hub,
            lookback_seconds=self.config.lookback_seconds,
            max_wall_seconds=self.config.handler_wall_budget_seconds,
        )
        self._id_counter = itertools.count(1)

    def next_incident_id(self) -> str:
        """Reserve the next live incident id.

        The streaming front reserves one id per queued alert *before* fanning
        parse+collect out to collection workers, so id assignment stays in
        submission order no matter how the pool interleaves — a prerequisite
        for serial/pooled parity.
        """
        return f"INC-LIVE-{next(self._id_counter):06d}"

    def parse_alert(
        self,
        alert: Alert,
        owning_team: Optional[str] = None,
        incident_id: Optional[str] = None,
    ) -> Incident:
        """Parse an alert into a fresh incident (Figure 4 "Incident Parsing").

        Live incidents get an ``INC-LIVE-`` prefix so their ids can never
        collide with historical corpus ids (``INC-``) when they are folded
        back into the history after labelling.

        Args:
            alert: The routed monitor alert.
            owning_team: Team to route the incident to; defaults to
                ``config.default_owning_team``.
            incident_id: A pre-reserved id (from :meth:`next_incident_id`);
                None draws the next id from the stage's counter.  With an
                explicit id this method touches no shared state, so
                collection workers may parse concurrently.
        """
        if owning_team is None:
            owning_team = self.config.default_owning_team
        if incident_id is None:
            incident_id = self.next_incident_id()
        return Incident.from_alert(incident_id, alert, owning_team=owning_team)

    def collect(
        self, incident: Incident, queries: Optional[CoalescingScope] = None
    ) -> CollectionOutcome:
        """Run the collection stage for an already-parsed incident.

        When no handler matches the incident's alert type the behaviour
        depends on ``config.strict``: strict mode raises
        :class:`NoHandlerError`; production mode falls back to an empty
        report so prediction can still run on the alert information alone
        (the limitation the paper's discussion section acknowledges).

        ``queries`` is the batch's :class:`~repro.handlers.CoalescingScope`
        (see :meth:`collect_many`); None collects the incident as a batch of
        one.
        """
        handler = self.registry.match(incident.alert_type)
        if handler is None:
            if self.config.strict:
                raise NoHandlerError(
                    f"no incident handler for alert type {incident.alert_type!r}"
                )
            return CollectionOutcome(incident=incident, matched_handler=None, execution=None)
        try:
            execution = self._executor.execute(handler, incident, queries=queries)
        except Exception as exc:  # noqa: BLE001 - degrade like the production system
            if self.config.strict:
                raise CollectionError(
                    f"handler {handler.name!r} failed on incident {incident.incident_id}: {exc}"
                ) from exc
            return CollectionOutcome(
                incident=incident, matched_handler=handler.name, execution=None
            )
        return CollectionOutcome(
            incident=incident, matched_handler=handler.name, execution=execution
        )

    def collect_many(self, incidents: Sequence[Incident]) -> List[CollectionOutcome]:
        """Run the collection stage for a batch of incidents, in order.

        Each incident walks its own handler's action graph, but the batch
        shares one :class:`~repro.handlers.CoalescingScope`: alerts of one
        storm ask the hub the same questions (same source, window and
        machine), and a built-in query (``error_logs``, ``metrics``,
        ``events``, ``traces``) an earlier incident of the batch already ran
        is answered from its result while no store it read has been written
        since.  Scripts, probes and ``classify`` callbacks still run per
        incident, so every outcome equals collecting the incidents one at a
        time.  The scope is dropped when the call returns.
        """
        queries = CoalescingScope()
        return [self.collect(incident, queries) for incident in incidents]

    def handle_alert(self, alert: Alert) -> CollectionOutcome:
        """Parse an alert and immediately run collection for it."""
        incident = self.parse_alert(alert)
        return self.collect(incident)
