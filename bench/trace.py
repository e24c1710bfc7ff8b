"""Span recording around the public entry points of each layer.

The benchmark may not edit ``src/``, so layers are timed from outside: the
traced pass replaces the public methods of the live layer objects
(``copilot.collection``, ``copilot.prediction.summarizer``, ``.embedder``,
``.index``, ``.predictor``, ``copilot.model``, the hub's stores, the stream
ingestor) with recording wrappers set as *instance* attributes, so the
classes stay untouched and :meth:`Tracer.restore` puts everything back.

A span is ``(id, parent, name, start, end, thread, key, units)``: ``parent``
is the span open on the same thread when this one started (-1 for none),
``key`` joins spans of one request across threads (the alert id), ``units``
counts the work the call carried (texts, queries, entries).  Spans stay in
memory and are written out once, when the pass ends.

:class:`SpanTable` does the arithmetic: a layer's busy time is the sum of
its outermost spans, its self time is each span minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    key: Optional[str]
    units: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


_MISSING = object()


def _first_argument(name: str) -> Callable[[tuple, dict], object]:
    """Picks a wrapped call's first parameter, passed by position or name."""
    return lambda args, kwargs: args[0] if args else kwargs[name]


def _length(name: str) -> Callable[[tuple, dict], int]:
    first = _first_argument(name)
    return lambda args, kwargs: len(first(args, kwargs))


def _attribute(name: str, attribute: str) -> Callable[[tuple, dict], str]:
    first = _first_argument(name)
    return lambda args, kwargs: getattr(first(args, kwargs), attribute)


class Tracer:
    """Records spans from wrappers installed on live objects."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: (owner, attribute, the instance attribute it had or _MISSING).
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, key: Optional[str] = None, units: int = 0) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident(), key, units)
            )

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        key: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        units: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``key`` and ``units`` receive the call's ``(args, kwargs)``; a call
        without ``units`` counts as one unit of work.  The wrapper is set on
        the instance, shadowing the class's method for that object only;
        :meth:`restore` removes it again.
        """
        function = getattr(owner, attribute)
        clock = self.clock
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        get_ident(),
                        key(args, kwargs) if key is not None else None,
                        units(args, kwargs) if units is not None else 1,
                    )
                )

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        self._installed.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        """Remove every installed wrapper, newest first."""
        while self._installed:
            owner, attribute, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def span_cost_seconds(self, calls: int = 20_000) -> float:
        """Measured cost of recording one span, for the overhead estimate.

        Times a wrapped no-op against the bare no-op on a scratch tracer, so
        the calibration leaves no spans behind in this one.
        """

        class _Target:
            def noop(self) -> None:
                return None

        def timed(target: _Target) -> float:
            started = time.perf_counter()
            for _ in range(calls):
                target.noop()
            return time.perf_counter() - started

        bare = _Target()
        wrapped = _Target()
        Tracer(self.clock).wrap(wrapped, "noop", "calibration")
        timed(wrapped)  # warm both paths before the timed comparison
        return max(timed(wrapped) - timed(bare), 0.0) / calls

    # ------------------------------------------------------- instrumentation
    def instrument_copilot(self, copilot) -> None:
        """Wrap the collection, telemetry, LLM, embedding and pipeline layers.

        Call after any component swap and *before* ``copilot.stream()``, so
        the ingest worker resolves the wrappers.  The index does not exist
        until ``index_history`` ran; see :meth:`instrument_index`.
        """
        stage = copilot.collection
        self.wrap(stage, "parse_alert", "collection.parse", key=_attribute("alert", "alert_id"))
        self.wrap(stage, "collect", "collection.collect", key=_attribute("incident", "incident_id"))

        hub = copilot.hub
        for store, methods in (
            (hub, ("busiest_machine", "error_summary")),
            (hub.logs, ("query", "error_signatures")),
            (hub.events, ("query",)),
            (hub.metrics, ("series", "top_machines", "metric_names", "latest")),
            (hub.traces, ("error_traces", "error_rate_by_service")),
        ):
            for method in methods:
                self.wrap(store, method, "telemetry.query")

        prediction = copilot.prediction
        self.wrap(prediction, "predict_many", "prediction", units=_length("incidents"))
        self.wrap(
            prediction.summarizer, "summarize_many", "llm.summarize", units=_length("diagnostic_texts")
        )
        self.wrap(prediction.summarizer, "summarize", "llm.summarize")
        self.wrap(prediction.predictor, "predict_many", "llm.predict", units=_length("items"))
        # complete_many calls complete per distinct prompt; nested same-name
        # spans count once (SpanTable.busy / outermost_units).
        self.wrap(copilot.model, "complete_many", "llm.model", units=_length("conversations"))
        self.wrap(copilot.model, "complete", "llm.model")
        if hasattr(prediction.embedder, "fit"):
            self.wrap(prediction.embedder, "fit", "embedding.fit", units=_length("documents"))
        self.wrap(prediction.embedder, "embed_many", "embedding.embed", units=_length("texts"))
        self.wrap(copilot, "diagnose_collected", "pipeline.diagnose", units=_length("collections"))

    def instrument_index(self, index) -> None:
        """Wrap the ``VectorIndex`` protocol's read and write entry points.

        ``add`` delegates to ``add_many``, so single inserts show up under
        both names; ``vectordb.add`` is the subset that came one at a time.
        """
        self.wrap(index, "search_many", "vectordb.search", units=_length("query_matrix"))
        self.wrap(index, "add_many", "vectordb.add_many", units=_length("incident_ids"))
        self.wrap(index, "add", "vectordb.add")
        self.wrap(index, "update_category", "vectordb.update_category")
        self.wrap(index, "save", "vectordb.save")

    def instrument_ingestor(self, ingestor) -> None:
        """Wrap the stream ingestor's public submit/flush/feedback calls."""
        self.wrap(ingestor, "submit", "streaming.submit", key=_attribute("alert", "alert_id"))
        self.wrap(ingestor, "flush", "streaming.flush")
        self.wrap(ingestor, "record_feedback", "streaming.feedback")

    # ---------------------------------------------------------------- output
    def dump(self, path: str, extra: Optional[Dict[str, object]] = None) -> None:
        """Write every span (plus ``extra`` context) as one JSON document."""
        document = dict(extra or {})
        document["columns"] = list(Span._fields)
        document["spans"] = [list(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class NullTracer:
    """The untraced pass: same interface, records and installs nothing."""

    enabled = False
    spans: Sequence[Span] = ()

    def span(self, name: str, key: Optional[str] = None, units: int = 0):
        return contextlib.nullcontext()

    def instrument_copilot(self, copilot) -> None:
        pass

    def instrument_index(self, index) -> None:
        pass

    def instrument_ingestor(self, ingestor) -> None:
        pass

    def restore(self) -> None:
        pass


# ------------------------------------------------------------------ analysis
def covered_seconds(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanTable:
    """Span-tree arithmetic over a finished trace, optionally one time window.

    With a ``window`` only spans that *started* inside it are counted, which
    is how set-up, timed window and verification are told apart.
    """

    def __init__(
        self, spans: Sequence[Span], window: Optional[Tuple[float, float]] = None
    ) -> None:
        self.by_id: Dict[int, Span] = {span.id: span for span in spans}
        self._children: Dict[int, List[Span]] = {}
        for span in spans:
            if span.parent >= 0:
                self._children.setdefault(span.parent, []).append(span)
        if window is not None:
            low, high = window
            spans = [span for span in spans if low <= span.start <= high]
        self.spans: List[Span] = list(spans)
        self._by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            self._by_name.setdefault(span.name, []).append(span)

    def named(self, name: str) -> List[Span]:
        return self._by_name.get(name, [])

    def children(self, span: Span) -> List[Span]:
        return self._children.get(span.id, [])

    def ancestors(self, span: Span) -> Iterator[Span]:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent)

    def has_ancestor(self, span: Span, name: str) -> bool:
        return any(ancestor.name == name for ancestor in self.ancestors(span))

    def outermost(self, name: str) -> List[Span]:
        """Spans of ``name`` not nested inside another span of that name."""
        return [span for span in self.named(name) if not self.has_ancestor(span, name)]

    def calls(self, name: str) -> int:
        return len(self.outermost(name))

    def units(self, name: str) -> int:
        return sum(span.units for span in self.outermost(name))

    def busy(self, name: str) -> float:
        """Seconds inside ``name``, counting nested same-name spans once."""
        return sum(span.seconds for span in self.outermost(name))

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus the part its children cover.

        Children on other threads may overlap each other (and, in principle,
        outlive the parent), so their union is clipped to the parent.
        """
        covered = covered_seconds(
            ((child.start, child.end) for child in self.children(span)),
            span.start,
            span.end,
        )
        return span.seconds - covered

    def self_time(self, name: str) -> float:
        return sum(self.self_seconds(span) for span in self.named(name))

    def uncovered_share(self, names: Sequence[str], low: float, high: float) -> float:
        """Share of ``[low, high]`` during which no span of ``names`` was open."""
        if high <= low:
            return 0.0
        intervals = [
            (span.start, span.end) for name in names for span in self.named(name)
        ]
        return 1.0 - covered_seconds(intervals, low, high) / (high - low)
