"""Configuration of the RCACopilot pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..vectordb import DEFAULT_ALPHA, DEFAULT_K, CompactionPolicy


class ContextSource(str, Enum):
    """Prompt context sources used by the Table 3 ablation."""

    ALERT_INFO = "alert_info"
    DIAGNOSTIC_INFO = "diagnostic_info"
    SUMMARIZED_DIAGNOSTIC_INFO = "summarized_diagnostic_info"
    ACTION_OUTPUT = "action_output"


@dataclass
class PredictionConfig:
    """Knobs of the root cause prediction stage."""

    #: Number of neighbour demonstrations in the CoT prompt (paper: K = 5).
    k: int = DEFAULT_K
    #: Temporal decay coefficient of the similarity formula (paper: 0.3).
    alpha: float = DEFAULT_ALPHA
    #: Draw the K demonstrations from distinct categories.
    diverse_categories: bool = True
    #: Summarize diagnostic information before prompting (Section 4.2.3).
    summarize: bool = True
    #: Context sources concatenated into the prompt input (Table 3).
    context_sources: tuple = (ContextSource.SUMMARIZED_DIAGNOSTIC_INFO,)
    #: Summary word budget.
    summary_min_words: int = 120
    summary_max_words: int = 140

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not self.context_sources:
            raise ValueError("at least one context source is required")


@dataclass
class CollectionConfig:
    """Knobs of the diagnostic information collection stage."""

    #: How far back from the alert the telemetry queries look, in seconds.
    lookback_seconds: float = 3600.0
    #: Whether execution failures should raise (True) or degrade to an
    #: alert-info-only report (False), as the production system does.
    strict: bool = False
    #: Team freshly parsed incidents are routed to when the alert carries no
    #: routing information (the paper's deployment started with Exchange's
    #: Transport team before expanding to other teams).
    default_owning_team: str = "Transport"
    #: Wall-clock budget for one handler execution, in seconds (None = no
    #: budget).  Checked between action steps, so a runaway handler stops at
    #: the next node boundary with a
    #: :class:`~repro.handlers.HandlerExecutionError` instead of occupying a
    #: collection worker forever.
    handler_wall_budget_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lookback_seconds <= 0:
            raise ValueError("lookback_seconds must be positive")
        if (
            self.handler_wall_budget_seconds is not None
            and self.handler_wall_budget_seconds <= 0
        ):
            raise ValueError("handler_wall_budget_seconds must be positive (or None)")


@dataclass
class IndexConfig:
    """Knobs of the retrieval index behind the prediction stage.

    The index is a :class:`~repro.vectordb.ShardedVectorIndex`: it
    partitions the history into time-window shards, prunes temporally
    irrelevant shards per query with an exact score bound and self-compacts
    skewed layouts, so retrieval scales to multi-100k histories while
    returning what a scan of every entry would.
    """

    #: Width of each time-window shard, in days.  None (the default)
    #: derives it from the indexed history's
    #: :meth:`~repro.incidents.IncidentStore.shard_counts`, targeting a
    #: median shard size (see :func:`~repro.core.prediction.select_window_days`).
    window_days: Optional[float] = None
    #: Shard merge/split thresholds and the auto-compaction trigger; None
    #: uses :class:`CompactionPolicy` defaults (compaction available via
    #: ``compact()`` but not auto-triggered).
    compaction: Optional[CompactionPolicy] = None

    def __post_init__(self) -> None:
        if self.window_days is not None and self.window_days <= 0:
            raise ValueError("window_days must be positive")


@dataclass
class IngestConfig:
    """Knobs of the streaming micro-batch ingestion front.

    A continuous alert stream is grouped into ``observe_many`` batches
    automatically.  The live worker is work-conserving: it blocks only for
    the *first* alert, takes whatever else is already queued (up to
    ``max_batch``) and processes it at once — batches form while the worker
    is busy collecting, predicting or blocked on a pipeline slot, never by
    waiting on a clock.  (Measured at light load only, where batches are
    ≈1 alert and cost more CPU and LLM requests per alert; the saturated
    case has no benchmark yet — see README "What flushing when idle
    bought".)  ``max_latency_seconds`` is not read by the live worker: it
    is the window bound of :class:`~repro.bus.BusReplayer`, whose recorded
    timeline carries arrival times but no service times and which therefore
    still cuts on size or on the oldest pending alert's wait.

    Within a flushed micro-batch the *collection* phase (alert parsing +
    handler action graphs — log pulls, probe queries, correlation lookups)
    can run concurrently on a thread pool inside the ingesting process while
    the *prediction* phase stays batched: ``collect_workers`` sizes the pool
    (handler queries are I/O-bound, so threads overlap them).  Outcomes
    are folded back in submission order before the single batched
    ``predict_many`` call, so reports, feedback routing, and ingest counters
    are identical to the serial path.

    With ``pipeline_depth`` >= 2 the two phases run as a double-buffered
    pipeline: while wave N's prediction runs on a dedicated single-slot
    prediction executor, the flushing thread already collects wave N+1 on
    the worker pool.  Predictions stay strictly serialized in submission
    order (wave N's feedback/index updates commit before wave N+1's
    prediction reads the index), so reports, feedback effects, and ingest
    counters remain value-identical to the barrier execution — the pipeline
    only removes the inter-wave stall.  Each wave is predicted in one
    pass: one batched retrieval, then one batched LLM call over the
    retrieved demonstrations.
    """

    #: Flush as soon as this many alerts are queued.
    max_batch: int = 16
    #: The longest a pending alert waits for company in a *replay*
    #: (``BusReplayer``), in recorded seconds.  The live worker never waits.
    max_latency_seconds: float = 0.05
    #: Bounded queue capacity; submissions beyond it block or fail.
    queue_capacity: int = 1024
    #: When the queue is full: block the submitter (True, backpressure) or
    #: raise :class:`~repro.core.errors.IngestQueueFull` (False, load shed).
    block_when_full: bool = True
    #: Collection worker pool size: None runs collection serially inside the
    #: flushing thread (the pre-pool behaviour), N >= 1 fans each
    #: micro-batch's parse+collect calls out to N workers.
    collect_workers: Optional[int] = None
    #: Micro-batches in flight at once: 1 (the default) is the classic
    #: barrier execution — collect and predict of one wave finish before the
    #: next wave starts; N >= 2 double-buffers the two phases, overlapping
    #: wave N's prediction with the collection of up to N-1 later waves
    #: (collect results hand off through a bounded in-flight slot with
    #: backpressure).  Reports, feedback effects, and ingest counters are
    #: identical at every depth.
    pipeline_depth: int = 1

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_latency_seconds <= 0:
            raise ValueError("max_latency_seconds must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.collect_workers is not None and self.collect_workers < 1:
            raise ValueError("collect_workers must be positive (or None for serial)")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be positive")


@dataclass
class PipelineConfig:
    """Top-level configuration of the on-call system."""

    collection: CollectionConfig = field(default_factory=CollectionConfig)
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    #: Embedding backend: ``fasttext`` (paper default) or ``hashed`` (the
    #: GPT-4 Embed. variant stand-in).
    embedding_backend: str = "fasttext"

    def __post_init__(self) -> None:
        if self.embedding_backend not in ("fasttext", "hashed"):
            raise ValueError(
                f"unknown embedding backend: {self.embedding_backend!r} "
                "(expected 'fasttext' or 'hashed')"
            )
