"""Distributed trace substrate.

Traces "represent tree-structured data detailing the flow of user requests"
(paper Section 2.2).  The store keeps spans grouped by trace id, can rebuild
the span tree, find the erroring traces and aggregate per-service latency —
the queries a handler's query action issues when it needs to locate which hop
of a mail-delivery request failed.

Index layout (all maintained by ``TraceStore.add``, under the store's lock):

* per trace: its spans in insertion order, and whether any span errored;
* one :class:`TimeColumn` of root start -> trace id over every rooted trace
  (the root is the earliest-starting parent-less span, the first added
  winning ties);
* per service: a :class:`TimeColumn` of span start -> duration, and the
  sorted starts of its error spans.

Write: O(1) dictionary work plus one ordered insert per column touched — an
append for in-order spans, a bisect and a list insert otherwise; a
parent-less span also scans its own trace for the root it may displace.
Read: ``traces``/``error_traces`` bisect the root column and build a
:class:`Trace` only for the k traces they return (O(log n + k log k) plus
the trees); ``error_rate_by_service`` is four bisects per service and
``service_latency`` two plus the window's durations.  ``slowest_traces``
still rebuilds every trace: it has no window.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .timeindex import TimeColumn, window_bounds


@dataclass(frozen=True)
class Span:
    """A single operation within a distributed trace.

    Attributes:
        trace_id: Identifier shared by all spans of one request.
        span_id: Unique identifier of this span.
        parent_id: Identifier of the parent span (None for the root).
        service: Service that executed the operation.
        operation: Operation name (e.g. ``smtp.connect``).
        start: Start time in seconds since the simulation epoch.
        duration: Duration in seconds.
        status: ``ok`` or ``error``.
        machine: Machine the operation ran on.
        tags: Optional key/value annotations.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    service: str
    operation: str
    start: float
    duration: float
    status: str = "ok"
    machine: str = ""
    tags: Dict[str, str] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """End time of the span."""
        return self.start + self.duration

    @property
    def is_error(self) -> bool:
        """True if the span finished in an error state."""
        return self.status == "error"


class Trace:
    """A reconstructed tree of spans sharing one trace id."""

    def __init__(self, trace_id: str, spans: Sequence[Span]) -> None:
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: s.start)
        self._children: Dict[Optional[str], List[Span]] = {}
        for span in self.spans:
            self._children.setdefault(span.parent_id, []).append(span)

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def root(self) -> Optional[Span]:
        """The root span (no parent), or None if the trace is broken."""
        roots = self._children.get(None, [])
        return roots[0] if roots else None

    def children(self, span: Span) -> List[Span]:
        """Direct children of a span."""
        return list(self._children.get(span.span_id, []))

    @property
    def duration(self) -> float:
        """Wall-clock duration of the whole trace."""
        if not self.spans:
            return 0.0
        start = min(s.start for s in self.spans)
        end = max(s.end for s in self.spans)
        return end - start

    def error_spans(self) -> List[Span]:
        """All spans in an error state."""
        return [s for s in self.spans if s.is_error]

    def services(self) -> List[str]:
        """Distinct services that participated in this trace."""
        return sorted({s.service for s in self.spans})


class TraceStore:
    """A thread-safe store of spans, indexed for windowed queries.

    See the module docstring for the index layout and its costs.  Writers
    and readers hold the store's lock, so a query sees the store at one
    point in time; copies and pickles carry the spans and rebuild the
    indices and the lock.  ``writes`` counts added spans, bumped under the
    lock once the span is indexed: a result read while it showed ``n``
    still holds while it shows ``n``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.writes = 0
        self._spans_by_trace: Dict[str, List[Span]] = {}
        self._roots: TimeColumn[str] = TimeColumn()
        self._error_ids: Set[str] = set()
        #: service -> (start -> duration of every span, starts of error spans).
        self._services: Dict[str, Tuple[TimeColumn[float], List[float]]] = {}

    def __len__(self) -> int:
        return self.writes

    def __getstate__(self) -> Dict[str, object]:
        with self._lock:
            return {
                "services": list(self._services),
                "spans": [list(spans) for spans in self._spans_by_trace.values()],
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__()
        # Seeded first: error_rate_by_service reports in first-seen order.
        self._services = {service: (TimeColumn(), []) for service in state["services"]}
        for spans in state["spans"]:
            self.extend(spans)

    def add(self, span: Span) -> None:
        """Add a span to the store and to every index."""
        with self._lock:
            spans = self._spans_by_trace.setdefault(span.trace_id, [])
            if span.parent_id is None:
                root = min((s.start for s in spans if s.parent_id is None), default=None)
                if root is None or span.start < root:
                    if root is not None:
                        self._roots.remove(root, span.trace_id)
                    self._roots.add(span.start, span.trace_id)
            spans.append(span)
            if span.service not in self._services:
                self._services[span.service] = (TimeColumn(), [])
            durations, error_starts = self._services[span.service]
            durations.add(span.start, span.duration)
            if span.is_error:
                self._error_ids.add(span.trace_id)
                bisect.insort(error_starts, span.start)
            self.writes += 1

    def extend(self, spans: Iterable[Span]) -> None:
        """Add many spans."""
        for span in spans:
            self.add(span)

    def trace_ids(self) -> List[str]:
        """All trace ids present in the store."""
        with self._lock:
            return sorted(self._spans_by_trace)

    def trace(self, trace_id: str) -> Optional[Trace]:
        """Reconstruct the trace tree for a trace id."""
        with self._lock:
            spans = self._spans_by_trace.get(trace_id)
            return Trace(trace_id, spans) if spans else None

    def _traces(
        self, start: Optional[float], end: Optional[float], errors_only: bool
    ) -> List[Trace]:
        with self._lock:
            ids = self._roots.window(start, end)
            if errors_only:
                ids = [trace_id for trace_id in ids if trace_id in self._error_ids]
            return [Trace(trace_id, self._spans_by_trace[trace_id]) for trace_id in sorted(ids)]

    def traces(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[Trace]:
        """Return all traces whose root starts inside the window, in id order."""
        return self._traces(start, end, errors_only=False)

    def error_traces(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[Trace]:
        """Return the traces of :meth:`traces` that contain an error span."""
        return self._traces(start, end, errors_only=True)

    def service_latency(
        self,
        service: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Return (mean, p95) span duration for a service inside the window."""
        with self._lock:
            entry = self._services.get(service)
            durations = sorted(entry[0].window(start, end)) if entry else []
        if not durations:
            return 0.0, 0.0
        mean = sum(durations) / len(durations)
        index = min(len(durations) - 1, int(round(0.95 * (len(durations) - 1))))
        return mean, durations[index]

    def error_rate_by_service(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Dict[str, float]:
        """Per-service fraction of spans in error state inside the window."""
        rates: Dict[str, float] = {}
        with self._lock:
            for service, (spans, error_starts) in self._services.items():
                lo, hi = window_bounds(spans.times, start, end)
                if hi > lo:
                    error_lo, error_hi = window_bounds(error_starts, start, end)
                    rates[service] = (error_hi - error_lo) / (hi - lo)
        return rates

    def slowest_traces(self, top: int = 5) -> List[Trace]:
        """Return the ``top`` traces with the longest duration."""
        traces = [self.trace(tid) for tid in self.trace_ids()]
        present = [t for t in traces if t is not None]
        present.sort(key=lambda t: -t.duration)
        return present[:top]


def render_trace(trace: Trace) -> str:
    """Render a trace as an indented tree for diagnostic reports."""
    lines: List[str] = [f"trace {trace.trace_id} ({trace.duration * 1000:.1f} ms)"]

    def visit(span: Span, depth: int) -> None:
        marker = "!" if span.is_error else " "
        lines.append(
            f"{'  ' * depth}{marker} {span.service}/{span.operation} "
            f"{span.duration * 1000:.1f} ms [{span.status}]"
        )
        for child in trace.children(span):
            visit(child, depth + 1)

    if trace.root is not None:
        visit(trace.root, 1)
    return "\n".join(lines)
