"""RCACopilot: the end-to-end on-call system (paper Figure 4).

Wires the two stages together behind one object:

* ``observe(alert)`` — parse an alert, collect diagnostic information with the
  matched handler, and predict the root-cause category with an explanation;
* ``diagnose(incident)`` — the same starting from an already-parsed incident
  (used when replaying historical corpora);
* ``index_history(store)`` — build/refresh the embedding index of labelled
  historical incidents (time-window shards, per ``IndexConfig``);
* ``record_feedback(...)`` — fold the OCE-confirmed label back into the
  history, the continuous-improvement loop the paper deploys;
* ``stream()`` — a :class:`~repro.core.streaming.StreamIngestor` that
  micro-batches a continuous alert stream into the same two stages.

Every diagnosis collects as one
:meth:`~repro.core.collect_pool.CollectionPool.run` wave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..handlers import HandlerRegistry, default_registry
from ..incidents import Incident, IncidentStore
from ..llm import ChatModel, SimulatedLLM
from ..monitors import Alert
from ..telemetry import TelemetryHub
from .clock import MONOTONIC_CLOCK, Clock
from .collect_pool import CollectionPool
from .collection import CollectionOutcome, CollectionStage
from .config import IngestConfig, PipelineConfig
from .prediction import PredictionOutcome, PredictionStage
from .streaming import StreamIngestor


@dataclass
class DiagnosisReport:
    """Everything RCACopilot produced for one incident."""

    incident: Incident
    collection: CollectionOutcome
    prediction: Optional[PredictionOutcome]
    elapsed_seconds: float

    @property
    def predicted_label(self) -> str:
        """The label surfaced to the on-call engineer."""
        if self.prediction is None:
            return "Unknown"
        return self.prediction.label

    @property
    def explanation(self) -> str:
        """The LLM's explanation of the prediction."""
        return self.prediction.prediction.explanation if self.prediction else ""

    def render(self) -> str:
        """Render a short on-call notification for the incident."""
        lines = [
            f"Incident {self.incident.incident_id}: {self.incident.title}",
            f"Matched handler: {self.collection.matched_handler or '(none)'}",
            f"Predicted root cause category: {self.predicted_label}",
        ]
        if self.prediction and self.prediction.prediction.is_unseen:
            lines.append("Note: no similar historical incident; this looks like a new root cause.")
        if self.explanation:
            lines.append(f"Explanation: {self.explanation}")
        mitigations = (
            self.collection.execution.mitigations if self.collection.execution else []
        )
        if mitigations:
            lines.append("Suggested mitigations: " + "; ".join(mitigations))
        return "\n".join(lines)


class RCACopilot:
    """The on-call system: collection stage + prediction stage."""

    def __init__(
        self,
        hub: TelemetryHub,
        registry: Optional[HandlerRegistry] = None,
        model: Optional[ChatModel] = None,
        config: Optional[PipelineConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.hub = hub
        self.registry = registry or default_registry()
        self.model = model or SimulatedLLM()
        # Every elapsed-time measurement reads this clock; replayed runs
        # inject a VirtualClock so the whole pipeline lives on the
        # recording's timeline.
        self.clock: Clock = clock if clock is not None else MONOTONIC_CLOCK
        self.collection = CollectionStage(self.registry, hub, self.config.collection)
        self.prediction = PredictionStage(
            model=self.model,
            config=self.config.prediction,
            embedding_backend=self.config.embedding_backend,
            index_config=self.config.index,
            clock=self.clock,
        )
        self.history = IncidentStore()
        self._indexed = False

    # ----------------------------------------------------------------- history
    def index_history(self, history: IncidentStore) -> None:
        """Index labelled historical incidents for neighbour retrieval."""
        self.history = history
        self.prediction.index_history(history)
        self._indexed = True

    def record_feedback(self, incident: Incident, confirmed_category: str) -> None:
        """Fold an OCE-confirmed label back into the history AND the live index.

        The continuous-improvement loop the paper deploys: the confirmed
        label is written to the history store and immediately reflected in
        the live embedding index — a correction updates the stored category
        in place (:meth:`PredictionStage.update_category`), a newly labelled
        incident becomes a retrievable neighbour right away
        (:meth:`PredictionStage.add_to_index`).  No index rebuild is needed.
        """
        if incident.incident_id not in self.history:
            self.history.add(incident)
        self.history.relabel(incident.incident_id, confirmed_category)
        if not self._indexed:
            return
        stored = self.history.get(incident.incident_id)
        if stored is not None and stored.incident_id in self.prediction.index:
            self.prediction.update_category(stored.incident_id, confirmed_category)
        elif stored is not None:
            self.prediction.add_to_index(stored)

    # ---------------------------------------------------------------- streaming
    def stream(
        self,
        config: Optional[IngestConfig] = None,
        clock: Optional["Clock"] = None,
    ) -> StreamIngestor:
        """A micro-batching ingestion front over this copilot.

        The returned :class:`StreamIngestor` groups a continuous alert
        stream into micro-batches automatically (bounded queue,
        work-conserving flush); see ``examples/streaming_triage.py``.
        ``clock`` injects an alternative time source (tests pass a
        step-controlled fake so flush and phase-timing paths run
        deterministically); when omitted the ingestor shares the copilot's
        own clock, so a copilot built for replay streams on the replayed
        timeline without further plumbing.
        """
        return StreamIngestor(
            self,
            config or self.config.ingest,
            clock=clock if clock is not None else self.clock,
        )

    # ---------------------------------------------------------------- diagnose
    def observe(self, alert: Alert) -> DiagnosisReport:
        """Handle an incoming alert end to end."""
        incident = self.collection.parse_alert(alert)
        return self.diagnose(incident)

    def diagnose(self, incident: Incident) -> DiagnosisReport:
        """Run both stages for an incident and return the full report.

        Delegates to :meth:`diagnose_many` with a single-element batch so the
        scalar and batch paths cannot diverge.
        """
        return self.diagnose_many([incident])[0]

    def diagnose_many(self, incidents: List[Incident]) -> List[DiagnosisReport]:
        """Diagnose a batch of incidents through the end-to-end batch path.

        Collection is one wave of a serial
        :class:`~repro.core.collect_pool.CollectionPool`; prediction runs as
        one batch — batch context build, batch embedding, one matrix–matrix
        retrieval pass and a deduplicated LLM batch.  Results are identical
        to diagnosing each incident on its own.  A strict-mode collection
        failure is raised once the whole wave is collected: the first in
        submission order, with nothing predicted.
        """
        if not incidents:
            return []
        started = self.clock.monotonic()
        results = CollectionPool(self.collection).run(incidents)
        for result in results:
            if not result.ok:
                raise result.error
        return self.diagnose_collected(
            [result.outcome for result in results], started=started
        )

    def diagnose_collected(
        self,
        collections: Sequence[CollectionOutcome],
        started: Optional[float] = None,
        now: Optional[Callable[[], float]] = None,
    ) -> List[DiagnosisReport]:
        """Run the batched prediction phase over already-collected incidents.

        The second half of :meth:`diagnose_many`, split out so callers that
        run the collection phase elsewhere — the stream ingestor's collection
        worker pool fans parse+collect out per alert — can still share the
        exact prediction/batching path.  ``started`` optionally
        carries the batch's true start time (collection included) so the
        reports' per-incident ``elapsed_seconds`` keeps its meaning; ``now``
        must then read the same clock ``started`` came from (the stream
        ingestor passes its injected clock; the default is the copilot's
        own ``clock.monotonic``, matching :meth:`diagnose_many`).
        """
        if not collections:
            return []
        if now is None:
            now = self.clock.monotonic
        if started is None:
            started = now()
        incidents = [collection.incident for collection in collections]
        predictions: List[Optional[PredictionOutcome]] = [None] * len(incidents)
        if self._indexed:
            predictions = list(self.prediction.predict_many(incidents))
        elapsed = (now() - started) / len(incidents)
        return [
            DiagnosisReport(
                incident=incident,
                collection=collection,
                prediction=prediction,
                elapsed_seconds=elapsed,
            )
            for incident, collection, prediction in zip(incidents, collections, predictions)
        ]
