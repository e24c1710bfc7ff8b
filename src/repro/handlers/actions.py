"""Handler actions: the reusable building blocks of incident handlers.

The paper distils on-call operations into three reusable action kinds
(Section 4.1.2):

* **Scope switching actions** adjust the data-collection scope (e.g. from a
  forest down to the single busiest hub machine) so the handler navigates the
  "information spectrum".
* **Query actions** query a data source (logs, metrics, traces, events, or a
  probe/script) and emit a key-value table plus an enum-ish outcome that
  steers the handler's control flow.
* **Mitigation actions** suggest mitigation steps ("restart service",
  "engage other teams").

Every action executes against an :class:`ActionContext` and returns an
:class:`ActionResult`; the result's ``outcome`` selects the next edge of the
handler's decision tree, its ``output`` key/values accumulate into the
incident's ActionOutput, and its ``sections`` accumulate into the diagnostic
report.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..incidents import DiagnosticSection, Incident
from ..monitors import DEFAULT_PROBES, AlertScope, Probe
from ..telemetry import LogLevel, TelemetryHub, TimeWindow

#: Outcome label every action may fall back to when no branch matches.
DEFAULT_OUTCOME = "default"


class CoalescingScope:
    """The built-in query results one collection batch shares.

    Alert storms diagnose many incidents over one window and one machine, so
    the handlers of one batch ask the hub the same questions.  Every alert
    of a batch (a :meth:`~repro.core.collection.CollectionStage.collect_many`
    call, one :class:`~repro.core.collect_pool.CollectionPool` wave) runs its
    handler with the batch's scope, and a query whose key matches an earlier
    one reuses that result instead of querying the hub again.

    Reuse is exact.  A result is stamped with the ``writes`` count of every
    store it reads, taken before the query runs, and is reused only while
    those stores still show that count: the hub holds what it held when the
    query ran.  A query that raises leaves nothing behind.  Tables are kept
    as tuples and handed out as fresh dicts, so no alert can change what
    another is given.  Entries are read and written with single dict
    operations, so collection-pool threads share a scope without a lock:
    two threads that miss on one key both query, and either result is
    exact.  The scope is dropped with its batch.
    """

    __slots__ = ("_results",)

    def __init__(self) -> None:
        self._results: Dict[tuple, Tuple[tuple, tuple, str]] = {}

    def query(
        self,
        key: tuple,
        stores: Tuple[object, ...],
        run: Callable[[], Tuple[Dict[str, str], str]],
    ) -> Tuple[Dict[str, str], str]:
        """``run()``'s ``(table, text)``, or an equal earlier result for ``key``."""
        stamp = tuple(store.writes for store in stores)
        held = self._results.get(key)
        if held is not None and held[0] == stamp:
            return dict(held[1]), held[2]
        table, content = run()
        self._results[key] = (stamp, tuple(table.items()), content)
        return table, content


@dataclass
class ActionContext:
    """Everything an action needs at execution time.

    Attributes:
        incident: The incident being diagnosed.
        hub: Telemetry hub to query.
        window: Current time window of interest.
        scope: Current collection scope (may differ from the alert's scope
            after a scope-switching action ran).
        target_machine: Machine the collection is currently focused on.
        target_forest: Forest the collection is currently focused on.
        variables: Free-form scratch space shared by actions in one run.
        queries: The batch's shared query results (a scope of its own
            when the incident is collected alone).
    """

    incident: Incident
    hub: TelemetryHub
    window: TimeWindow
    scope: AlertScope
    target_machine: str = ""
    target_forest: str = ""
    variables: Dict[str, str] = field(default_factory=dict)
    queries: CoalescingScope = field(
        default_factory=CoalescingScope, repr=False, compare=False
    )

    @classmethod
    def for_incident(
        cls,
        incident: Incident,
        hub: TelemetryHub,
        lookback: float = 3600.0,
        queries: Optional[CoalescingScope] = None,
    ) -> "ActionContext":
        """Build the initial context from the incident's alert information."""
        window = TimeWindow(max(0.0, incident.created_at - lookback), incident.created_at + 60.0)
        return cls(
            incident=incident,
            hub=hub,
            window=window,
            scope=incident.scope,
            target_machine=incident.machine,
            target_forest=incident.forest,
            queries=queries if queries is not None else CoalescingScope(),
        )


@dataclass
class ActionResult:
    """The outcome of executing one action."""

    outcome: str = DEFAULT_OUTCOME
    output: Dict[str, str] = field(default_factory=dict)
    sections: List[DiagnosticSection] = field(default_factory=list)
    mitigation: Optional[str] = None

    def add_section(self, title: str, content: str, source: str = "") -> None:
        """Append a diagnostic section produced by this action.

        Title and content are interned: incidents collected over the same
        window render the same text, so their reports share one copy of it
        (the interpreter drops the copy with the last report that holds it).
        """
        self.sections.append(
            DiagnosticSection(
                title=sys.intern(title), content=sys.intern(content), source=source
            )
        )


class Action:
    """Base class for handler actions.

    Subclasses implement :meth:`execute`.  ``name`` identifies the action in
    ActionOutput keys and in serialized handlers.
    """

    kind = "action"

    def __init__(self, name: str) -> None:
        self.name = name

    def execute(self, context: ActionContext) -> ActionResult:  # pragma: no cover - abstract
        raise NotImplementedError

    def output_key(self, key: str) -> str:
        """The ActionOutput key ``<name>.<key>``.

        Interned: every report an action contributes to holds the same few
        key strings, so they share one copy instead of one per report.
        """
        return sys.intern(f"{self.name}.{key}")

    def describe(self) -> str:
        """Human-readable description used by the handler-authoring tools."""
        return f"{self.kind}:{self.name}"


class ScopeSwitchAction(Action):
    """Adjust the collection scope (forest <-> machine).

    When narrowing to machine scope without an explicit machine, the action
    picks the busiest machine by ``busiest_metric`` inside the window — the
    "Analyze Single Busy Server" behaviour of Figure 5.
    """

    kind = "scope_switch"

    def __init__(
        self,
        name: str,
        target_scope: AlertScope,
        busiest_metric: str = "udp_socket_count",
    ) -> None:
        super().__init__(name)
        self.target_scope = target_scope
        self.busiest_metric = busiest_metric

    def execute(self, context: ActionContext) -> ActionResult:
        result = ActionResult()
        previous = context.scope
        context.scope = self.target_scope
        if self.target_scope is AlertScope.MACHINE and not context.target_machine:
            busiest = context.hub.busiest_machine(self.busiest_metric, context.window)
            if busiest is not None:
                context.target_machine, value = busiest
                result.output[self.output_key("busiest_value")] = f"{value:.1f}"
        result.output[self.output_key("from")] = previous.value
        result.output[self.output_key("to")] = self.target_scope.value
        target = (
            context.target_machine
            if self.target_scope is AlertScope.MACHINE
            else context.target_forest
        )
        result.output[self.output_key("target")] = target
        result.outcome = self.target_scope.value
        result.add_section(
            "Scope switch",
            (
                f"Collection scope switched from {previous.value} to "
                f"{self.target_scope.value}; focusing on "
                f"{target or 'whole deployment'}."
            ),
            source="handler",
        )
        return result


class QueryAction(Action):
    """Query one data source and emit a key-value table.

    ``source`` selects the built-in query (``error_logs``, ``metrics``,
    ``events``, ``traces``, ``stack_grouping``) or ``probe:<ProbeName>`` to run
    a probe, or ``script`` with a user-supplied callable (internal
    investigation tools in the paper).  ``classify`` maps the raw result to an
    outcome label that drives branching (e.g. the exception type).  The
    ``error_logs``, ``metrics``, ``events`` and ``traces`` queries go through
    the batch's :class:`CoalescingScope`; the others run every time.
    """

    kind = "query"

    def __init__(
        self,
        name: str,
        source: str,
        metric_names: Optional[List[str]] = None,
        pattern: Optional[str] = None,
        script: Optional[Callable[[ActionContext], Dict[str, str]]] = None,
        classify: Optional[Callable[[ActionContext, Dict[str, str]], str]] = None,
    ) -> None:
        super().__init__(name)
        self.source = source
        self.metric_names = metric_names or []
        self.pattern = pattern
        self.script = script
        self.classify = classify

    def execute(self, context: ActionContext) -> ActionResult:
        result = ActionResult()
        table: Dict[str, str] = {}
        shared = _SHARED_QUERIES.get(self.source)
        if shared is not None:
            table = self._shared_query(context, result, *shared)
        elif self.source == "stack_grouping":
            table = self._query_stack_grouping(context, result)
        elif self.source.startswith("probe:"):
            table = self._run_probe(context, result, self.source.split(":", 1)[1])
        elif self.source == "script":
            if self.script is None:
                raise ValueError(f"query action {self.name!r} has source 'script' but no script")
            table = self.script(context)
            if table:
                result.add_section(
                    f"Script output: {self.name}",
                    "\n".join(f"{k}: {v}" for k, v in sorted(table.items())),
                    source="script",
                )
        else:
            raise ValueError(f"unknown query source: {self.source!r}")

        for key, value in table.items():
            # Counts, machine names, "true": a few hundred values across all reports.
            result.output[self.output_key(key)] = sys.intern(value)
        if self.classify is not None:
            result.outcome = self.classify(context, table)
        return result

    def _shared_query(
        self,
        context: ActionContext,
        result: ActionResult,
        title: str,
        section_source: str,
        store_names: Tuple[str, ...],
        machine_scoped: bool,
        query: "_Query",
    ) -> Dict[str, str]:
        """Run a built-in query through the batch's :class:`CoalescingScope`.

        The key is everything the query reads: the hub and its stores, the
        source and its parameters, the window as it stands now, and the
        target machine when the query is machine-scoped.  The action's own
        name only titles the section, so actions of different handlers with
        the same inputs share one result.
        """
        hub, window = context.hub, context.window
        machine = (
            context.target_machine
            if machine_scoped and context.scope is AlertScope.MACHINE
            else None
        )
        stores = tuple(getattr(hub, name) for name in store_names)
        key = (
            hub, stores, self.source, self.pattern, tuple(self.metric_names),
            window.start, window.end, machine,
        )
        table, content = context.queries.query(
            key, stores, lambda: query(self, hub, window, machine)
        )
        result.add_section(f"{title} ({self.name})", content, source=section_source)
        return table

    # ------------------------------------------------------------ query kinds
    def _error_logs(
        self, hub: TelemetryHub, window: TimeWindow, machine: Optional[str]
    ) -> Tuple[Dict[str, str], str]:
        records = hub.logs.query(
            start=window.start,
            end=window.end,
            machine=machine,
            min_level=LogLevel.ERROR,
            pattern=self.pattern,
        )
        signatures = hub.error_summary(window, top=3)
        content = "\n".join(r.render() for r in records[-20:]) or "(no matching error logs)"
        table = {"error_count": str(len(records))}
        if signatures:
            table["top_error"] = signatures[0][0]
            table["top_error_count"] = str(signatures[0][1])
        return table, content

    def _metrics(
        self, hub: TelemetryHub, window: TimeWindow, machine: Optional[str]
    ) -> Tuple[Dict[str, str], str]:
        table: Dict[str, str] = {}
        lines: List[str] = []
        names = self.metric_names or hub.metrics.metric_names()
        for name in names:
            if machine:
                series = hub.metrics.series(name, machine)
                if series is None:
                    continue
                value = series.maximum(window.start, window.end)
                table[name] = f"{value:.1f}"
                lines.append(f"{name} on {machine}: max={value:.1f}")
            else:
                top = hub.metrics.top_machines(
                    name, start=window.start, end=window.end, top=1
                )
                if not top:
                    continue
                top_machine, value = top[0]
                table[name] = f"{value:.1f}"
                table[f"{name}.top_machine"] = top_machine
                lines.append(f"{name}: max={value:.1f} on {top_machine}")
        return table, "\n".join(lines) or "(no metrics found)"

    def _events(
        self, hub: TelemetryHub, window: TimeWindow, machine: Optional[str]
    ) -> Tuple[Dict[str, str], str]:
        events = hub.events.query(start=window.start, end=window.end, machine=machine)
        content = "\n".join(e.render() for e in events[-15:]) or "(no events in window)"
        kinds: Dict[str, int] = {}
        for event in events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        table = {f"count.{kind}": str(count) for kind, count in sorted(kinds.items())}
        table["event_count"] = str(len(events))
        return table, content

    def _traces(
        self, hub: TelemetryHub, window: TimeWindow, machine: Optional[str]
    ) -> Tuple[Dict[str, str], str]:
        error_traces = hub.traces.error_traces(window.start, window.end)
        rates = hub.traces.error_rate_by_service(window.start, window.end)
        lines = [f"error traces in window: {len(error_traces)}"]
        for service, rate in sorted(rates.items(), key=lambda kv: -kv[1])[:5]:
            lines.append(f"{service}: error rate {rate:.2%}")
        table = {"error_trace_count": str(len(error_traces))}
        if rates:
            worst = max(rates.items(), key=lambda kv: kv[1])
            table["worst_service"] = worst[0]
            table["worst_service_error_rate"] = f"{worst[1]:.3f}"
        return table, "\n".join(lines)

    def _query_stack_grouping(
        self, context: ActionContext, result: ActionResult
    ) -> Dict[str, str]:
        probe = DEFAULT_PROBES["ThreadStackGroupingProbe"]
        machine = context.target_machine or context.incident.machine or ""
        outcome = probe.run(context.hub, machine, context.window)
        result.add_section("Thread stack grouping", outcome.render(), source="probe")
        return {
            "grouped_stacks": str(len(outcome.details)),
            "blocking_detected": str(not outcome.healthy).lower(),
        }

    def _run_probe(
        self, context: ActionContext, result: ActionResult, probe_name: str
    ) -> Dict[str, str]:
        probe: Optional[Probe] = DEFAULT_PROBES.get(probe_name)
        if probe is None:
            raise ValueError(f"unknown probe: {probe_name!r}")
        machine = context.target_machine or context.incident.machine or context.target_forest
        outcome = probe.run(context.hub, machine, context.window)
        result.add_section(f"Probe: {probe_name}", outcome.render(), source="probe")
        return {
            "total": str(outcome.total),
            "failed": str(outcome.failed),
            "healthy": str(outcome.healthy).lower(),
            "error": outcome.error_name,
        }


#: A built-in query: (action, hub, window, machine or None) -> (table, text).
_Query = Callable[
    [QueryAction, TelemetryHub, TimeWindow, Optional[str]], Tuple[Dict[str, str], str]
]

#: The built-in queries a batch shares, by source: the section title and
#: source, the hub stores the query reads, whether it reads only the target
#: machine under machine scope, and the query.  Probes and scripts run per
#: alert.
_SHARED_QUERIES: Dict[str, Tuple[str, str, Tuple[str, ...], bool, _Query]] = {
    "error_logs": ("Error logs", "logs", ("logs",), True, QueryAction._error_logs),
    "metrics": ("Key metrics", "metrics", ("metrics",), True, QueryAction._metrics),
    "events": ("Operational events", "events", ("events",), True, QueryAction._events),
    "traces": ("Trace analysis", "traces", ("traces",), False, QueryAction._traces),
}


class MitigationAction(Action):
    """Suggest a mitigation step (the handler's leaf recommendation)."""

    kind = "mitigation"

    def __init__(self, name: str, suggestion: str, engage_team: str = "") -> None:
        super().__init__(name)
        self.suggestion = suggestion
        self.engage_team = engage_team

    def execute(self, context: ActionContext) -> ActionResult:
        result = ActionResult(mitigation=self.suggestion)
        result.output[self.output_key("suggestion")] = self.suggestion
        if self.engage_team:
            result.output[self.output_key("engage_team")] = self.engage_team
        result.add_section(
            "Suggested mitigation",
            self.suggestion
            + (f"\nEngage team: {self.engage_team}" if self.engage_team else ""),
            source="handler",
        )
        return result
