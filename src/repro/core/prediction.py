"""Stage 2: root cause prediction (paper Section 4.2, Figure 4 right half).

Pipeline per batch of incoming incidents:

1. build each incident's prompt context from the configured sources
   (summarized diagnostic info by default; AlertInfo / raw DiagnosticInfo /
   ActionOutput for the Table 3 ablation), with summarization batched
   through the LLM's batch interface;
2. embed the *original* diagnostic information of the whole batch in one
   call and run the temporal-decay nearest-neighbour search as a single
   matrix–matrix scoring pass over the historical incident index;
3. construct the Figure 9 chain-of-thought prompts with the neighbours'
   summarized information as demonstrations;
4. ask the LLM for the whole batch, parse each answer into a category (or a
   newly generated label for unseen incidents) plus an explanation.

Because most incidents recur (paper Figure 2), the stage keeps
content-hash-keyed caches of diagnostic summaries and embeddings; a
recurring incident costs two hash lookups instead of an LLM round trip and
an embedding pass.  Hit/miss counters are exported through the
:class:`~repro.telemetry.TelemetryHub`.

The scalar :meth:`PredictionStage.predict` delegates to the batch
:meth:`PredictionStage.predict_many`, so both paths produce identical
predictions and neighbour sets by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..embedding import FastTextConfig, FastTextEmbedder, HashedEmbedder
from ..incidents import Incident, IncidentStore
from ..llm import (
    CategoryPrediction,
    ChainOfThoughtPredictor,
    ChatModel,
    Demonstration,
    DiagnosticSummarizer,
    SimulatedLLM,
)
from ..telemetry import TelemetryHub
from ..vectordb import DEFAULT_WINDOW_DAYS, ShardedVectorIndex, SimilarityConfig, VectorIndex
from .clock import MONOTONIC_CLOCK, Clock
from .config import ContextSource, IndexConfig, PredictionConfig
from .errors import NotFittedError


def _content_key(text: str) -> str:
    """Content-addressed cache key: SHA-256 of the exact text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Median shard size the automatic window selection aims for.  Around 2k
#: entries a shard's matrix product amortizes the per-shard visit overhead
#: while staying small enough that pruning skips real work.
AUTO_WINDOW_TARGET_MEDIAN = 2048
#: Never auto-select a window so wide the history splits into fewer shards
#: than this (pruning needs shards to skip).
AUTO_WINDOW_MIN_SHARDS = 4


def select_window_days(
    history: IncidentStore, target_median: int = AUTO_WINDOW_TARGET_MEDIAN
) -> float:
    """Derive a sharded-index window width from a history's time layout.

    Uses :meth:`IncidentStore.shard_counts` to preview the shard layout at
    candidate widths: starting from the widest window that still yields
    :data:`AUTO_WINDOW_MIN_SHARDS` shards over the history's span, the
    width is halved until the *median* shard holds at most
    ``target_median`` incidents.  Dense histories therefore get narrow
    windows (many prunable shards), sparse ones get wide windows (no
    per-shard overhead for nothing).
    """
    counts = history.shard_counts(1.0)
    if not counts:
        return DEFAULT_WINDOW_DAYS
    span_days = max(counts) - min(counts) + 1
    window = max(span_days / AUTO_WINDOW_MIN_SHARDS, 1.0)
    while window > 1.0:
        sizes = sorted(history.shard_counts(window).values())
        if sizes[len(sizes) // 2] <= target_median:
            break
        window /= 2.0
    return max(window, 1.0)


@dataclass
class CacheStats:
    """Hit/miss counters of the content-addressed summary/embedding caches."""

    summary_hits: int = 0
    summary_misses: int = 0
    embedding_hits: int = 0
    embedding_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a flat mapping (metric name suffix -> value)."""
        return {
            "summary_hits": self.summary_hits,
            "summary_misses": self.summary_misses,
            "embedding_hits": self.embedding_hits,
            "embedding_misses": self.embedding_misses,
        }


@dataclass
class PredictionOutcome:
    """The prediction stage's result for one incident."""

    incident_id: str
    prediction: CategoryPrediction
    summary: str
    neighbors: List[Demonstration] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def label(self) -> str:
        """Predicted label (known category or newly generated one)."""
        return self.prediction.label


def predict_many_grouped(
    groups: Sequence[Tuple["PredictionStage", Sequence[Incident]]],
) -> List[List[PredictionOutcome]]:
    """Predict one shared micro-batch composed of several stages' incidents.

    The multi-tenant wave path: each group is (that tenant's prediction
    stage, its slice of the wave).  Summaries are warmed and neighbours
    retrieved per stage — against each tenant's own index — but the LLM
    round trip is **one** ``predict_many`` call over the concatenated
    (context, demonstrations) items, so the predictor's request
    deduplication spans tenants exactly as it spans a single-tenant batch
    (two tenants hit by the same recurring incident cost one completion).
    Per-item predictions are identical to running each group through its
    own stage alone: every stage must share one chat model, retrieval
    depends only on the stage's own index, and the deduplicated completion
    of a given prompt is deterministic by the same condition that enables
    dedup at all.

    Each returned inner list aligns 1:1 with its group's incidents.  Every
    stage must already be indexed (callers route unindexed tenants around
    prediction, as ``diagnose_collected`` does); all stages must share one
    chat model — the dedup identity the shared batch rests on.
    """
    if not groups:
        return []
    stages = [stage for stage, _ in groups]
    model = stages[0].model
    for stage in stages[1:]:
        if stage.model is not model:
            raise ValueError(
                "predict_many_grouped requires every stage to share one chat "
                "model; cross-tenant batch dedup is meaningless otherwise"
            )
    clock = stages[0]._clock
    started = clock.monotonic()
    group_contexts: List[List[str]] = []
    group_demonstrations: List[List[List[Demonstration]]] = []
    for stage, incidents in groups:
        incidents = list(incidents)
        stage._warm_summaries(incidents)
        group_contexts.append([stage.build_context(incident) for incident in incidents])
        group_demonstrations.append(
            stage.retrieve_many(incidents) if incidents else []
        )
    combined: List[Tuple[str, List[Demonstration]]] = []
    for contexts, demonstration_lists in zip(group_contexts, group_demonstrations):
        combined.extend(zip(contexts, demonstration_lists))
    predictions = stages[0].predictor.predict_many(combined)
    total = len(combined)
    elapsed = (clock.monotonic() - started) / total if total else 0.0
    outcomes: List[List[PredictionOutcome]] = []
    cursor = 0
    for (stage, incidents), contexts, demonstration_lists in zip(
        groups, group_contexts, group_demonstrations
    ):
        group_outcomes: List[PredictionOutcome] = []
        for incident, context, demonstrations in zip(
            incidents, contexts, demonstration_lists
        ):
            prediction = predictions[cursor]
            cursor += 1
            incident.predicted_category = prediction.label
            incident.explanation = prediction.explanation
            group_outcomes.append(
                PredictionOutcome(
                    incident_id=incident.incident_id,
                    prediction=prediction,
                    summary=stage._summaries.get(incident.incident_id, context),
                    neighbors=demonstrations,
                    elapsed_seconds=elapsed,
                )
            )
        outcomes.append(group_outcomes)
    return outcomes


class PredictionStage:
    """Embeds history, retrieves neighbours, and predicts categories."""

    def __init__(
        self,
        model: Optional[ChatModel] = None,
        config: Optional[PredictionConfig] = None,
        embedding_backend: str = "fasttext",
        embedder=None,
        index_config: Optional[IndexConfig] = None,
        hub: Optional[TelemetryHub] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.model = model or SimulatedLLM()
        self.config = config or PredictionConfig()
        self.index_config = index_config or IndexConfig()
        #: Time source for in-stage telemetry timestamps and durations; a
        #: replayed run injects a VirtualClock so the metrics it emits are
        #: stamped on the recording's timeline, not the host's wall clock.
        self._clock: Clock = clock if clock is not None else MONOTONIC_CLOCK
        #: Optional telemetry hub for decisions taken inside the stage
        #: (e.g. the automatic ``window_days`` choice); metric/stat exports
        #: still go through the explicit ``export_*_metrics`` calls.
        self.hub = hub
        #: The shard window actually used by the live index (set by
        #: :meth:`index_history`; equals the configured value unless the
        #: config left it to the automatic selection).
        self.resolved_window_days: Optional[float] = None
        self.summarizer = DiagnosticSummarizer(
            self.model,
            min_words=self.config.summary_min_words,
            max_words=self.config.summary_max_words,
        )
        self.predictor = ChainOfThoughtPredictor(self.model)
        if embedder is not None:
            self.embedder = embedder
        elif embedding_backend == "hashed":
            self.embedder = HashedEmbedder()
        elif embedding_backend == "fasttext":
            self.embedder = FastTextEmbedder(FastTextConfig())
        else:
            raise ValueError(f"unknown embedding backend: {embedding_backend!r}")
        self.index: Optional[VectorIndex] = None
        self.cache_stats = CacheStats()
        self._summaries: Dict[str, str] = {}
        self._summary_cache: Dict[str, str] = {}
        self._embedding_cache: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ caches
    def _embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Embed texts through the content-addressed embedding cache.

        Repeated content — across calls or inside one batch — is embedded
        once; only distinct cache misses reach ``embedder.embed_many``.
        """
        keys = [_content_key(text) for text in texts]
        out: Optional[np.ndarray] = None
        missing_keys: List[str] = []
        missing_texts: List[str] = []
        missing_rows: Dict[str, List[int]] = {}
        for row, key in enumerate(keys):
            if key in self._embedding_cache:
                self.cache_stats.embedding_hits += 1
                continue
            rows = missing_rows.get(key)
            if rows is None:
                self.cache_stats.embedding_misses += 1
                missing_rows[key] = [row]
                missing_keys.append(key)
                missing_texts.append(texts[row])
            else:
                # Deduplicated inside the batch: no second embedding pass.
                self.cache_stats.embedding_hits += 1
                rows.append(row)
        if missing_texts:
            vectors = np.asarray(self.embedder.embed_many(missing_texts))
            for key, vector in zip(missing_keys, vectors):
                self._embedding_cache[key] = vector
        dim = self._embedding_cache[keys[0]].shape[0] if keys else 0
        out = np.zeros((len(texts), dim))
        for row, key in enumerate(keys):
            out[row] = self._embedding_cache[key]
        return out

    def _summary_for(self, incident: Incident) -> str:
        """Summary of one incident, through the content-addressed cache."""
        if incident.summary:
            return incident.summary
        if self.config.summarize and not incident.diagnostic.is_empty():
            text = incident.diagnostic_info()
            key = _content_key(text)
            summary = self._summary_cache.get(key)
            if summary is None:
                self.cache_stats.summary_misses += 1
                summary = self.summarizer.summarize(text).text
                self._summary_cache[key] = summary
            else:
                self.cache_stats.summary_hits += 1
            incident.summary = summary
            return summary
        return incident.diagnostic_info() or incident.alert_info()

    def _warm_summaries(self, incidents: Sequence[Incident]) -> None:
        """Fill summaries for a batch with one batched summarization call.

        Cache hits (and in-batch duplicates) are resolved without touching
        the model; distinct misses go through
        :meth:`DiagnosticSummarizer.summarize_many` in one call.
        """
        if not self.config.summarize:
            return
        pending: Dict[str, List[Incident]] = {}
        pending_texts: List[str] = []
        pending_keys: List[str] = []
        for incident in incidents:
            if incident.summary or incident.diagnostic.is_empty():
                continue
            text = incident.diagnostic_info()
            key = _content_key(text)
            cached = self._summary_cache.get(key)
            if cached is not None:
                self.cache_stats.summary_hits += 1
                incident.summary = cached
                continue
            group = pending.get(key)
            if group is None:
                self.cache_stats.summary_misses += 1
                pending[key] = [incident]
                pending_keys.append(key)
                pending_texts.append(text)
            else:
                self.cache_stats.summary_hits += 1
                group.append(incident)
        if not pending_texts:
            return
        results = self.summarizer.summarize_many(pending_texts)
        for key, result in zip(pending_keys, results):
            self._summary_cache[key] = result.text
            for incident in pending[key]:
                incident.summary = result.text

    def export_cache_metrics(
        self, hub: TelemetryHub, timestamp: float, machine: str = "prediction-stage"
    ) -> None:
        """Emit the cache hit/miss counters as telemetry metrics.

        ``machine`` labels the emitting stage — tenant-scoped stages pass
        ``prediction-stage/<tenant>`` so their series never interleave with
        another tenant's in the shared hub.
        """
        for suffix, value in self.cache_stats.as_dict().items():
            hub.emit_metric(
                f"rcacopilot.cache.{suffix}",
                machine=machine,
                timestamp=timestamp,
                value=float(value),
                unit="count",
            )

    def export_index_metrics(
        self, hub: TelemetryHub, timestamp: float, machine: str = "prediction-stage"
    ) -> None:
        """Emit the retrieval index's layout/scan statistics as telemetry.

        Covers shard counts and sizes plus the scanned-shard/entry ratios, so
        a deployment can watch how much of the history each query actually
        touches as the index grows.  ``machine`` labels the emitting stage
        (tenant-scoped stages pass ``prediction-stage/<tenant>``).
        """
        if self.index is None:
            return
        hub.emit_metrics(
            {
                f"rcacopilot.index.{name}": value
                for name, value in self.index.stats().items()
            },
            machine=machine,
            timestamp=timestamp,
        )

    # ------------------------------------------------------------------ index
    def index_history(self, history: IncidentStore) -> None:
        """Fit the embedder and index the labelled historical incidents.

        The embedding uses the *original* diagnostic information while the
        prompt demonstrations use the summarized text, exactly as Section
        4.2.4 describes ("we use the original incident information to do the
        embedding and nearest neighbor search, and use the corresponding
        summarized information as part of demonstrations").

        The whole history is embedded in one ``embed_many`` call and bulk
        inserted through the :class:`~repro.vectordb.VectorIndex` protocol;
        summaries go through the batched summarizer, warming the content
        caches for the live stream.  The index is a
        :class:`~repro.vectordb.ShardedVectorIndex` whose window width and
        compaction policy come from :class:`IndexConfig`; neither changes
        retrieval results.
        """
        labelled = history.labelled()
        if not labelled:
            raise NotFittedError("history contains no labelled incidents to index")
        texts = [incident.diagnostic_info() or incident.alert_info() for incident in labelled]
        if hasattr(self.embedder, "fit"):
            self.embedder.fit(texts)
        # A re-fitted embedder produces different vectors; stale entries must go.
        self._embedding_cache.clear()
        self._warm_summaries(labelled)
        vectors = self._embed_texts(texts)
        window_days = self.index_config.window_days
        if window_days is None:
            # Size the windows for what actually gets indexed: the labelled
            # subset, not the full history.
            labelled_history = (
                history if len(labelled) == len(history) else IncidentStore(labelled)
            )
            window_days = select_window_days(labelled_history)
            if self.hub is not None:
                now = self._clock.time()
                self.hub.emit_metric(
                    "rcacopilot.index.window_days_auto",
                    machine="prediction-stage",
                    timestamp=now,
                    value=float(window_days),
                    unit="days",
                )
                self.hub.emit_log(
                    timestamp=now,
                    level="INFO",
                    component="prediction-stage",
                    machine="prediction-stage",
                    message=(
                        f"auto-selected window_days={window_days:g} for the "
                        f"sharded index ({len(labelled)} labelled incidents)"
                    ),
                )
        self.resolved_window_days = window_days
        self.index = ShardedVectorIndex(
            similarity=SimilarityConfig(
                alpha=self.config.alpha,
                k=self.config.k,
                diverse_categories=self.config.diverse_categories,
            ),
            window_days=window_days,
            compaction=self.index_config.compaction,
        )
        self._summaries = {}
        summaries = [self._summary_for(incident) for incident in labelled]
        for incident, summary in zip(labelled, summaries):
            self._summaries[incident.incident_id] = summary
        self.index.add_many(
            incident_ids=[incident.incident_id for incident in labelled],
            vectors=vectors,
            created_days=[incident.created_day for incident in labelled],
            categories=[incident.category or "" for incident in labelled],
            texts=summaries,
        )

    def add_to_index(self, incident: Incident) -> None:
        """Add one labelled incident to an existing index.

        Used by the continuous-labelling evaluation and by the live feedback
        loop (:meth:`RCACopilot.record_feedback`): after OCEs confirm an
        incident's category, it becomes a retrievable neighbour for future
        incidents without re-fitting the embedder.
        """
        if self.index is None:
            raise NotFittedError("index_history must be called before add_to_index")
        if not incident.is_labelled():
            raise ValueError("only labelled incidents can be added to the index")
        if incident.incident_id in self.index:
            return
        text = incident.diagnostic_info() or incident.alert_info()
        vector = self._embed_texts([text])[0]
        summary = self._summary_for(incident)
        self._summaries[incident.incident_id] = summary
        self.index.add(
            incident_id=incident.incident_id,
            vector=vector,
            created_day=incident.created_day,
            category=incident.category or "",
            text=summary,
        )

    def update_category(self, incident_id: str, category: str) -> None:
        """Correct the indexed category of an incident after OCE feedback.

        Raises:
            KeyError: with the offending id, when the incident was never
                indexed.
        """
        if self.index is None:
            raise NotFittedError("index_history must be called before update_category")
        self.index.update_category(incident_id, category)

    # ---------------------------------------------------------------- predict
    def build_context(self, incident: Incident) -> str:
        """Assemble the prompt input text from the configured context sources."""
        parts: List[str] = []
        for source in self.config.context_sources:
            if source is ContextSource.ALERT_INFO:
                parts.append(incident.alert_info())
            elif source is ContextSource.DIAGNOSTIC_INFO:
                parts.append(incident.diagnostic_info())
            elif source is ContextSource.SUMMARIZED_DIAGNOSTIC_INFO:
                parts.append(self._summary_for(incident))
            elif source is ContextSource.ACTION_OUTPUT:
                parts.append(incident.action_output_info())
        return "\n\n".join(part for part in parts if part).strip()

    def retrieve(self, incident: Incident, k: Optional[int] = None) -> List[Demonstration]:
        """Retrieve the top-K neighbour demonstrations for one incident."""
        return self.retrieve_many([incident], k=k)[0]

    def retrieve_many(
        self,
        incidents: Sequence[Incident],
        k: Optional[int] = None,
        history_before_day: Optional[float] = None,
    ) -> List[List[Demonstration]]:
        """Retrieve neighbour demonstrations for a whole batch of incidents.

        All queries are embedded in one pass (through the embedding cache)
        and scored against the retrieval index through the
        :class:`~repro.vectordb.VectorIndex` protocol: one matrix product
        per eligible shard, the neighbours a scan of every entry would give.
        """
        if self.index is None:
            raise NotFittedError("index_history must be called before retrieval")
        if not incidents:
            return []
        texts = [
            incident.diagnostic_info() or incident.alert_info() for incident in incidents
        ]
        vectors = self._embed_texts(texts)
        neighbor_lists = self.index.search_many(
            vectors,
            np.array([incident.created_day for incident in incidents]),
            k=k or self.config.k,
            exclude_ids=[{incident.incident_id} for incident in incidents],
            history_before_day=history_before_day,
        )
        return [
            [
                Demonstration(
                    incident_id=n.incident_id,
                    summary=n.entry.text,
                    category=n.category,
                    similarity=n.similarity,
                )
                for n in neighbors
            ]
            for neighbors in neighbor_lists
        ]

    def predict(self, incident: Incident) -> PredictionOutcome:
        """Run the full prediction stage for one incident.

        Delegates to :meth:`predict_many` with a single-element batch, so the
        scalar and batch paths cannot diverge.
        """
        return self.predict_many([incident])[0]

    def predict_many(self, incidents: Sequence[Incident]) -> List[PredictionOutcome]:
        """Run the full prediction stage for a batch of incidents.

        Batch context build -> batch embed -> batch retrieve -> batch
        predict.  Per-incident results are identical to sequential
        :meth:`predict` calls (same labels, same neighbour sets); recurring
        incidents additionally hit the summary/embedding caches and are
        deduplicated inside the LLM batch.
        """
        if not incidents:
            return []
        started = self._clock.monotonic()
        self._warm_summaries(incidents)
        contexts = [self.build_context(incident) for incident in incidents]
        demonstration_lists = self.retrieve_many(incidents)
        predictions = self.predictor.predict_many(
            list(zip(contexts, demonstration_lists))
        )
        elapsed = (self._clock.monotonic() - started) / len(incidents)
        outcomes: List[PredictionOutcome] = []
        for incident, context, demonstrations, prediction in zip(
            incidents, contexts, demonstration_lists, predictions
        ):
            incident.predicted_category = prediction.label
            incident.explanation = prediction.explanation
            outcomes.append(
                PredictionOutcome(
                    incident_id=incident.incident_id,
                    prediction=prediction,
                    summary=self._summaries.get(incident.incident_id, context),
                    neighbors=demonstrations,
                    elapsed_seconds=elapsed,
                )
            )
        return outcomes
