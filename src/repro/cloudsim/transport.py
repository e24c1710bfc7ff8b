"""The simulated Transport email service.

Ties the topology, workload generator, fault injectors and monitor suite into
one object able to (a) run background traffic, (b) inject a fault from the
scenario catalogue, and (c) report the alerts the monitors raised — i.e. the
full detection half of the incident life-cycle that the paper's system sits
behind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..monitors import Alert, MonitorSuite, default_monitor_suite
from ..telemetry import TelemetryHub, TimeWindow
from .components import Topology, build_topology
from .faults import FAULT_INJECTORS, FaultRecord
from .workload import WorkloadConfig, WorkloadGenerator


@dataclass
class InjectionOutcome:
    """The observable outcome of injecting one fault into the running service."""

    fault: FaultRecord
    alerts: List[Alert] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """True if at least one alert was raised for the fault."""
        return bool(self.alerts)

    @property
    def primary_alert(self) -> Optional[Alert]:
        """The alert matching the fault's expected alert type, if present."""
        for alert in self.alerts:
            if alert.alert_type == self.fault.expected_alert_type:
                return alert
        return self.alerts[0] if self.alerts else None


class TransportService:
    """A runnable simulation of the Transport email service.

    Typical use::

        service = TransportService(seed=7)
        service.warm_up(hours=2)
        outcome = service.inject_and_detect("HubPortExhaustion")
        print(outcome.primary_alert.summary())
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        workload_config: Optional[WorkloadConfig] = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology or build_topology()
        self.hub = TelemetryHub()
        self.rng = random.Random(seed)
        self.workload = WorkloadGenerator(
            self.topology, self.hub, workload_config, rng=random.Random(seed + 1)
        )
        self.monitors: MonitorSuite = default_monitor_suite(self.topology.forest_of())
        self.clock = 0.0

    # ----------------------------------------------------------------- running
    def warm_up(self, hours: float = 1.0) -> None:
        """Advance the simulation by ``hours`` of background traffic only."""
        seconds = hours * 3600.0
        self.workload.run(self.clock, self.clock + seconds)
        self.clock += seconds

    def advance(self, seconds: float) -> List[Alert]:
        """Advance time with background traffic and evaluate monitors."""
        start = self.clock
        self.workload.run(start, start + seconds)
        self.clock += seconds
        return self.monitors.evaluate(self.hub, TimeWindow(start, self.clock))

    # --------------------------------------------------------------- injection
    def inject(self, category: str, forest: Optional[str] = None) -> FaultRecord:
        """Inject a fault of the given category without evaluating monitors."""
        injector = FAULT_INJECTORS.get(category)
        if injector is None:
            raise KeyError(
                f"no fault injector for category {category!r}; known: "
                f"{sorted(FAULT_INJECTORS)}"
            )
        forest_name = forest or self.rng.choice([f.name for f in self.topology.forests])
        record = injector.inject(
            self.topology, self.hub, forest_name, self.clock, self.rng
        )
        return record

    def inject_and_detect(
        self,
        category: str,
        forest: Optional[str] = None,
        detection_window: float = 1800.0,
    ) -> InjectionOutcome:
        """Inject a fault, run traffic for the detection window, evaluate monitors.

        Returns the ground-truth record together with whatever alerts the
        monitor suite raised in the window — which may be empty (missed
        detection) or include unrelated noise alerts, as in production.
        """
        start = self.clock
        record = self.inject(category, forest=forest)
        self.workload.run(start, start + detection_window)
        self.clock += detection_window
        alerts = self.monitors.evaluate(self.hub, TimeWindow(start, self.clock))
        relevant = [
            a
            for a in alerts
            if a.forest == record.forest
            or (a.machine and a.machine == record.machine)
            or a.alert_type == record.expected_alert_type
        ]
        return InjectionOutcome(fault=record, alerts=relevant or alerts)

    # ---------------------------------------------------------------- reporting
    def describe(self) -> str:
        """Human-readable one-line description of the simulated deployment."""
        forests = len(self.topology.forests)
        machines = len(self.topology.machines)
        return (
            f"TransportService(forests={forests}, machines={machines}, "
            f"clock={self.clock:.0f}s, {self.hub.describe()})"
        )
