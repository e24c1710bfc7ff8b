"""Handler execution engine: the diagnostic information collection stage.

Walks a handler's decision tree for one incident, executing each action
against the telemetry hub, accumulating diagnostic sections, action outputs,
and mitigation suggestions.  The result is written back onto the incident so
the prediction stage (and OCEs) can consume it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.errors import HandlerExecutionError
from ..incidents import DiagnosticReport, Incident
from ..telemetry import TelemetryHub
from .actions import ActionContext, ActionResult, CoalescingScope
from .handler import IncidentHandler

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from ..chaos import FaultInjector

__all__ = [
    "ExecutionResult",
    "HandlerExecutionError",  # canonical home is repro.core.errors
    "HandlerExecutor",
    "StepTrace",
]


@dataclass(slots=True)
class StepTrace:
    """Record of one executed action node (for audit and debugging); slotted,
    a report keeps one per step."""

    node_id: str
    action_name: str
    outcome: str
    elapsed_seconds: float


@dataclass
class ExecutionResult:
    """Everything the collection stage produced for one incident."""

    incident_id: str
    handler_name: str
    handler_version: int
    report: DiagnosticReport = field(default_factory=DiagnosticReport)
    action_output: Dict[str, str] = field(default_factory=dict)
    mitigations: List[str] = field(default_factory=list)
    steps: List[StepTrace] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def step_count(self) -> int:
        """Number of action nodes executed."""
        return len(self.steps)


class HandlerExecutor:
    """Executes incident handlers over a telemetry hub.

    The executor holds no per-execution state (each run builds its own
    :class:`~repro.handlers.actions.ActionContext`), so one executor may be
    shared by concurrent collection workers as long as nothing writes into
    the hub while they run — the same read-only contract the telemetry hub
    itself documents.  It is also picklable and deep-copyable (hub + plain
    floats), so whole pipelines can be copied.

    ``max_wall_seconds`` bounds one execution's wall-clock time: the budget
    is checked between action steps, so a handler stuck in slow telemetry
    queries stops at the next node boundary with a
    :class:`HandlerExecutionError` instead of occupying a collection worker
    indefinitely.

    ``fault_injector`` is the chaos harness's hook into the handler-action
    boundary: when set, every action step first fires the injector's
    ``handler.step`` site, so configured faults surface exactly where a
    real action failure would — inside one incident's execution, contained
    by the collection stage's per-alert failure handling.  The injector is
    deliberately dropped from pickles and deep copies: it holds a lock, and
    a copied pipeline starts without injected faults.
    """

    def __init__(
        self,
        hub: TelemetryHub,
        lookback_seconds: float = 3600.0,
        max_wall_seconds: Optional[float] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.hub = hub
        self.lookback_seconds = lookback_seconds
        self.max_wall_seconds = max_wall_seconds
        self.fault_injector = fault_injector

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["fault_injector"] = None
        return state

    def execute(
        self, handler: IncidentHandler, incident: Incident,
        attach_to_incident: bool = True,
        queries: Optional[CoalescingScope] = None,
    ) -> ExecutionResult:
        """Run a handler for an incident.

        Args:
            handler: The matched incident handler.
            incident: The incident being diagnosed.
            attach_to_incident: When True (default) the collected report and
                action outputs are written onto the incident object.
            queries: The collection batch's shared query results; None
                gives this execution a scope of its own.

        Returns:
            The :class:`ExecutionResult` with the diagnostic report, hashed
            action outputs, suggested mitigations, and a step trace.

        Raises:
            HandlerExecutionError: If execution exceeds ``handler.max_steps``
                or the executor's ``max_wall_seconds`` budget.
        """
        started = time.perf_counter()
        context = ActionContext.for_incident(
            incident, self.hub, lookback=self.lookback_seconds, queries=queries
        )
        result = ExecutionResult(
            incident_id=incident.incident_id,
            handler_name=handler.name,
            handler_version=handler.version,
        )
        node_id: Optional[str] = handler.root
        steps = 0
        while node_id is not None:
            if steps >= handler.max_steps:
                raise HandlerExecutionError(
                    f"handler {handler.name!r} exceeded {handler.max_steps} steps "
                    f"on incident {incident.incident_id}"
                )
            if (
                self.max_wall_seconds is not None
                and time.perf_counter() - started > self.max_wall_seconds
            ):
                raise HandlerExecutionError(
                    f"handler {handler.name!r} exceeded its {self.max_wall_seconds:g}s "
                    f"wall-clock budget after {steps} steps "
                    f"on incident {incident.incident_id}"
                )
            node = handler.nodes.get(node_id)
            if node is None:
                raise HandlerExecutionError(
                    f"handler {handler.name!r} references unknown node {node_id!r}"
                )
            if self.fault_injector is not None:
                self.fault_injector.fire("handler.step", detail=node.action.name)
            step_started = time.perf_counter()
            action_result = node.action.execute(context)
            self._accumulate(result, action_result)
            result.steps.append(
                StepTrace(
                    node_id=node_id,
                    action_name=node.action.name,
                    outcome=action_result.outcome,
                    elapsed_seconds=time.perf_counter() - step_started,
                )
            )
            node_id = node.next_node(action_result.outcome)
            steps += 1
        result.elapsed_seconds = time.perf_counter() - started
        if attach_to_incident:
            # Shared with the result, not copied: a resolved report is kept
            # whole by whoever holds its future, and holds each of these once.
            incident.diagnostic = result.report
            incident.action_output = result.action_output
        return result

    @staticmethod
    def _accumulate(result: ExecutionResult, action_result: ActionResult) -> None:
        for section in action_result.sections:
            result.report.sections.append(section)
        result.action_output.update(action_result.output)
        if action_result.mitigation:
            result.mitigations.append(action_result.mitigation)
