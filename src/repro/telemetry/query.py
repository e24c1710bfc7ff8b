"""Unified multi-source telemetry query layer.

The collection stage's query actions need one façade over logs, metrics,
traces and events so a handler author can write "fetch the error logs and the
UDP socket metrics for this machine over the last 15 minutes" as a single
call.  :class:`TelemetryHub` is that façade; it is also the object the cloud
simulator writes into while faults unfold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .events import EventStore, SystemEvent
from .logs import LogLevel, LogRecord, LogStore
from .metrics import MetricStore
from .traces import Span, TraceStore


@dataclass
class TimeWindow:
    """An inclusive time window used by scoped queries."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"time window end ({self.end}) precedes start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Length of the window in seconds."""
        return self.end - self.start

    def contains(self, timestamp: float) -> bool:
        """True if the timestamp lies inside the window."""
        return self.start <= timestamp <= self.end

    def widened(self, seconds: float) -> "TimeWindow":
        """Return a new window expanded by ``seconds`` on both sides."""
        return TimeWindow(self.start - seconds, self.end + seconds)


@dataclass
class TelemetrySnapshot:
    """A bundle of telemetry extracted for one scope and window.

    This is the raw material a handler's query actions turn into diagnostic
    information sections.
    """

    window: TimeWindow
    machine: Optional[str]
    logs: List[LogRecord] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    events: List[SystemEvent] = field(default_factory=list)
    error_traces: List[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        """True when no telemetry at all was captured."""
        return not (self.logs or self.metrics or self.events or self.error_traces)


class TelemetryHub:
    """Façade over the four telemetry stores.

    The simulator writes into the hub; monitors and handler actions read from
    it.  All stores are owned by the hub so that one object can be threaded
    through the whole pipeline.
    """

    def __init__(self) -> None:
        self.logs = LogStore()
        self.metrics = MetricStore()
        self.traces = TraceStore()
        self.events = EventStore()

    # ------------------------------------------------------------------ write
    def emit_log(
        self,
        timestamp: float,
        level: "LogLevel | str",
        component: str,
        machine: str,
        message: str,
        **fields: str,
    ) -> LogRecord:
        """Convenience writer used heavily by the cloud simulator."""
        record = LogRecord(
            timestamp=timestamp,
            level=LogLevel.parse(level),
            component=component,
            machine=machine,
            message=message,
            fields=dict(fields),
        )
        self.logs.append(record)
        return record

    def emit_metric(
        self, name: str, machine: str, timestamp: float, value: float, unit: str = ""
    ) -> None:
        """Record a metric sample."""
        self.metrics.record(name, machine, timestamp, value, unit=unit)

    def emit_metrics(
        self,
        values: Dict[str, float],
        machine: str,
        timestamp: float,
        unit: str = "",
    ) -> None:
        """Record one sample per ``{metric name: value}`` entry.

        Convenience for components that export whole statistics blocks at
        once (the prediction stage's cache/index stats, the stream
        ingestor's queue/flush stats).
        """
        for name, value in values.items():
            self.metrics.record(name, machine, timestamp, float(value), unit=unit)

    def emit_span(self, span: Span) -> None:
        """Record a trace span."""
        self.traces.add(span)

    def emit_event(self, event: SystemEvent) -> None:
        """Record a system event."""
        self.events.add(event)

    # ------------------------------------------------------------------- read
    def snapshot(
        self,
        window: TimeWindow,
        machine: Optional[str] = None,
        min_level: LogLevel = LogLevel.WARNING,
        metric_names: Optional[List[str]] = None,
    ) -> TelemetrySnapshot:
        """Extract a scoped snapshot of all telemetry sources.

        Args:
            window: Time window of interest.
            machine: Restrict logs/metrics/events to a machine (None = all).
            min_level: Minimum log level to include.
            metric_names: Metrics to include (None = every metric, latest value).

        Returns:
            A :class:`TelemetrySnapshot` with logs, latest metric values,
            events and the ids of error traces in the window.
        """
        logs = self.logs.query(
            start=window.start, end=window.end, machine=machine, min_level=min_level
        )
        metric_values: Dict[str, float] = {}
        names = metric_names if metric_names is not None else self.metrics.metric_names()
        for name in names:
            if machine is not None:
                series = self.metrics.series(name, machine)
                if series is None:
                    continue
                values = series.values(window.start, window.end)
                if values:
                    metric_values[name] = values[-1]
            else:
                aggregated = self.metrics.aggregate(
                    name, start=window.start, end=window.end, how="max"
                )
                if aggregated:
                    metric_values[name] = max(aggregated.values())
        events = self.events.query(
            start=window.start, end=window.end, machine=machine
        )
        error_traces = [
            t.trace_id for t in self.traces.error_traces(window.start, window.end)
        ]
        return TelemetrySnapshot(
            window=window,
            machine=machine,
            logs=logs,
            metrics=metric_values,
            events=events,
            error_traces=error_traces,
        )

    def busiest_machine(
        self, metric: str, window: TimeWindow
    ) -> Optional[Tuple[str, float]]:
        """Return the machine with the highest max of ``metric`` in the window.

        Used by scope-switching actions such as "Analyze Single Busy Server"
        in Figure 5.
        """
        top = self.metrics.top_machines(metric, start=window.start, end=window.end, top=1)
        return top[0] if top else None

    def error_summary(self, window: TimeWindow, top: int = 5) -> List[Tuple[str, int]]:
        """Top error-log signatures inside the window."""
        return self.logs.error_signatures(start=window.start, end=window.end, top=top)

    def describe(self) -> str:
        """One-line description of store sizes (useful in reports and tests)."""
        return (
            f"TelemetryHub(logs={len(self.logs)}, metric_series={len(self.metrics)}, "
            f"spans={len(self.traces)}, events={len(self.events)})"
        )
