"""Streaming micro-batch ingestion front for the always-on deployment.

``RCACopilot.observe_many`` batches alerts the *caller* has already
collected; a production deployment instead receives a continuous alert
stream.  :class:`StreamIngestor` closes that gap: alerts are submitted into
a bounded queue and grouped into ``observe_many`` micro-batches
automatically.  The live worker is work-conserving: it blocks only for the
first alert, takes whatever else is already queued (up to
``IngestConfig.max_batch``) and processes it at once — cut on ``"size"``
when that filled the batch, else on ``"idle"``.  No alert waits on a timer;
batches form only while the worker is busy.  That is tested on a fake
clock, but its effect on a *saturated* worker is unmeasured: the one
benchmarked live workload runs ≈12% busy, where batches are ≈1 alert and
the batch economies (one retrieval pass, one deduplicated LLM batch) are
given up.  ``IngestConfig.max_latency_seconds`` is read only by the
record/replay bus (:mod:`repro.bus.replayer`).

Two driving modes share all of the batching logic:

* **background** — ``start()`` spawns a daemon worker that drains the queue
  continuously; ``submit()`` returns a :class:`concurrent.futures.Future`
  resolving to the alert's :class:`~repro.core.pipeline.DiagnosisReport`;
* **manual** — without a worker, ``flush()`` synchronously processes
  whatever is queued (deterministic, used by tests and replay tooling).

Each flushed micro-batch runs in two phases mirroring the paper's
collection/prediction split: the **collection phase** (alert parsing +
handler action graphs) optionally fans out to a
:class:`~repro.core.collect_pool.CollectionPool` of threads
(``IngestConfig.collect_workers``), with incident ids
pre-reserved in submission order and outcomes folded back in submission
order; the **prediction phase** then runs once over the whole batch
(``diagnose_collected``: batch embed, one retrieval pass, deduplicated LLM
batch).  Reports, feedback effects, and ingest counters are therefore
identical whether collection ran serially or on a pool.  A handler raising
during the collection phase fails only its own alert's future — the rest of
the batch still predicts, and the pool survives for the next wave.

With :attr:`IngestConfig.pipeline_depth` >= 2 the two phases run as a
**double-buffered pipeline**: each collected wave is handed off through a
bounded in-flight slot (backpressure) to a dedicated single-slot prediction
executor, so while wave N's prediction runs, the flushing thread is already
collecting wave N+1 on the pool.  Predictions stay strictly serialized in
submission order and take the same ingestion lock as mid-stream feedback —
wave N's feedback/index updates commit before wave N+1's prediction reads
the index — so reports, feedback effects, and ingest counters are
value-identical to the barrier execution; the pipeline removes only the
inter-wave stall.  (The prediction-phase telemetry exports then run
concurrently with collect handlers' hub *reads*; handler queries filter by
metric names the ingestor never emits, so query results are unaffected.)
One extra caveat in pipelined mode: a future done-callback must not call
``flush()`` — the callback runs on the prediction lane, and its wave would
queue behind itself; ``submit`` and ``record_feedback`` remain safe.

With :attr:`IngestConfig.autoscale` set, a
:class:`~repro.core.autoscale.PoolAutoscaler` watches each batch's measured
pool utilization, queue backlog, and phase split, and resizes the
collection pool between ``collect_workers_min`` and ``collect_workers_max``
— always at a batch boundary, so the submission-order fold and report
parity are untouched.  Every timing path (worker polls, phase walls,
autoscaler cooldown) reads the injected
:class:`~repro.core.clock.Clock`, making the whole control surface
deterministic under the test harness's fake clock.

OCE feedback can be folded in mid-stream through
:meth:`StreamIngestor.record_feedback`, which serializes with batch
processing so the updated index is visible to the very next micro-batch.
Queue depth and flush statistics are exported through the telemetry hub.

Threading contract: the ingestor serializes *its own* access to the
copilot (batches and mid-stream feedback never interleave), and
``submit``/``stats`` are safe from any thread.  What it cannot serialize
is activity it never sees: driving the same copilot directly
(``observe``/``diagnose``) or writing into the same ``TelemetryHub`` from
another thread while the worker is flushing races the pipeline's
single-threaded stores.  Route all triage through the ingestor while it
runs, and generate/collect alerts before starting the worker (or in the
manual ``flush()`` mode) when the producer shares the hub — as
``examples/streaming_triage.py`` does.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..incidents import Incident
from ..monitors import Alert
from .autoscale import PoolAutoscaler
from .clock import MONOTONIC_CLOCK, Clock
from .collect_pool import CollectionPool, CollectResult
from .config import IngestConfig
from .errors import IngestQueueFull

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .pipeline import DiagnosisReport, RCACopilot

#: How often a worker blocked on an empty queue looks at the stop signal,
#: in clock seconds — a stop poll, not a latency: no alert ever waits on it.
STOP_POLL_SECONDS = 0.05


@dataclass
class IngestStats:
    """Counters describing the ingestion front's behaviour so far.

    Every counter is deterministic for a given alert stream and flush
    pattern — including ``collect_failures`` — so serial and pooled
    collection produce identical stats.  The live instance inside a
    :class:`StreamIngestor` is mutated under the ingestor's stats lock;
    read it only through :meth:`StreamIngestor.stats`, which returns a
    consistent snapshot.  Calling :meth:`as_dict` on such a snapshot is
    always safe; calling it on an object other threads are mutating is not
    (the flush-reason dict may grow mid-iteration).
    """

    submitted: int = 0
    processed: int = 0
    batches: int = 0
    max_queue_depth: int = 0
    last_flush_size: int = 0
    collect_failures: int = 0
    #: Batches whose processing died outside the per-alert containment
    #: (infrastructure failure, not a handler/prediction error); their
    #: futures are still resolved — with the batch-killing exception.
    worker_errors: int = 0
    #: Batches by reason; a live worker's cuts add ``"idle"`` (absent from
    #: a replay or a manual drive, so their ``as_dict()`` keeps these keys).
    flush_reasons: Dict[str, int] = field(
        default_factory=lambda: {"size": 0, "latency": 0, "manual": 0}
    )

    def as_dict(self) -> Dict[str, float]:
        """Counters as a flat metric mapping (suffix -> value)."""
        flat = {
            "submitted": float(self.submitted),
            "processed": float(self.processed),
            "batches": float(self.batches),
            "max_queue_depth": float(self.max_queue_depth),
            "last_flush_size": float(self.last_flush_size),
            "collect_failures": float(self.collect_failures),
            "worker_errors": float(self.worker_errors),
        }
        for reason, count in self.flush_reasons.items():
            flat[f"flush_reason_{reason}"] = float(count)
        return flat


class _StageOccupancy:
    """Busy-time accounting of the collect and predict stages.

    Every stage start/end event accrues the interval since the previous
    event to whichever stages were active during it — collect, predict,
    and their overlap — against the injected clock.  Busy fractions are
    relative to the observed span (first stage event to now), so a barrier
    execution reports zero overlap while a pipelined one reports exactly
    the wall clock the pipeline hid.  Thread-safe: the collect side ticks
    from the flushing thread, the predict side from the prediction lane.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._collect_active = 0
        self._predict_active = 0
        self._first_event: Optional[float] = None
        self._last_event: Optional[float] = None
        self.collect_busy = 0.0
        self.predict_busy = 0.0
        self.overlap = 0.0

    def _accrue_locked(self, now: float) -> None:
        """Charge the interval since the last event to the active stages."""
        if self._last_event is None:
            return
        delta = now - self._last_event
        if delta > 0.0:
            if self._collect_active:
                self.collect_busy += delta
            if self._predict_active:
                self.predict_busy += delta
            if self._collect_active and self._predict_active:
                self.overlap += delta
        self._last_event = now

    def _shift(self, collect_delta: int, predict_delta: int) -> None:
        with self._lock:
            now = self._clock.monotonic()
            if self._first_event is None:
                self._first_event = now
                self._last_event = now
            self._accrue_locked(now)
            self._collect_active += collect_delta
            self._predict_active += predict_delta

    def collect_start(self) -> None:
        self._shift(1, 0)

    def collect_end(self) -> None:
        self._shift(-1, 0)

    def predict_start(self) -> None:
        self._shift(0, 1)

    def predict_end(self) -> None:
        self._shift(0, -1)

    def overlap_total(self) -> float:
        """Cumulative collect/predict overlap, accrued to now."""
        with self._lock:
            self._accrue_locked(self._clock.monotonic())
            return self.overlap

    def snapshot(self) -> Dict[str, float]:
        """The occupancy gauges as a flat metric mapping (suffix -> value)."""
        with self._lock:
            self._accrue_locked(self._clock.monotonic())
            span = (
                self._last_event - self._first_event
                if self._first_event is not None and self._last_event is not None
                else 0.0
            )
            return {
                "pipeline_overlap_seconds": self.overlap,
                "collect_busy_fraction": (
                    self.collect_busy / span if span > 0.0 else 0.0
                ),
                "predict_busy_fraction": (
                    self.predict_busy / span if span > 0.0 else 0.0
                ),
            }


@dataclass
class _Wave:
    """One collected micro-batch, handed from the collect to the predict stage."""

    items: List[Tuple[Alert, Future]]
    results: List[CollectResult]
    reason: str
    collect_started: float
    collect_seconds: float
    pool_size: int
    utilization: float
    autoscale_metrics: Optional[Dict[str, float]] = None


class StreamIngestor:
    """Bounded queue + micro-batching window in front of ``observe_many``."""

    def __init__(
        self,
        copilot: "RCACopilot",
        config: Optional[IngestConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.copilot = copilot
        self.config = config or getattr(copilot.config, "ingest", None) or IngestConfig()
        self.hub = copilot.hub
        #: Time source for the worker's stop poll, phase timings, and the
        #: autoscaler's cooldown window.  Tests inject a step-controlled
        #: fake clock so every timing path runs deterministically.
        self._clock = clock or MONOTONIC_CLOCK
        self._queue: "queue.Queue[Tuple[Alert, Future]]" = queue.Queue(
            maxsize=self.config.queue_capacity
        )
        #: Serializes batch processing against mid-stream feedback so an
        #: index update is either fully visible to a micro-batch or not at
        #: all — never interleaved with it.
        self._lock = threading.Lock()
        #: Guards the IngestStats counters, which are mutated from producer
        #: threads (submit) and the worker thread (_process) concurrently.
        #: Separate from ``_lock`` so submitters never wait on a running
        #: batch just to bump a counter.
        self._stats_lock = threading.Lock()
        #: Serializes wave *collection* (and pool resizes) across the
        #: background worker and concurrent manual ``flush()`` callers in
        #: pipelined mode.  Under barrier execution the ingestion lock
        #: covers this already; pipelined, collection must not wait behind
        #: a running prediction, hence the separate lock.
        self._collect_lock = threading.Lock()
        self._worker: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._ingest_stats = IngestStats()
        #: Pipelined execution (``pipeline_depth`` >= 2): a dedicated
        #: single-slot executor serializes predictions in submission order,
        #: and the bounded semaphore caps how many collected waves may be
        #: in flight toward it — the collecting thread blocks on a slot
        #: before submitting, which is the pipeline's backpressure.
        self._pipelined = self.config.pipeline_depth >= 2
        self._predict_executor: Optional[ThreadPoolExecutor] = None
        self._predict_slots: Optional[threading.BoundedSemaphore] = (
            threading.BoundedSemaphore(self.config.pipeline_depth - 1)
            if self._pipelined
            else None
        )
        self._pending_lock = threading.Lock()
        self._pending_predictions: List[Future] = []
        #: (predict_seconds, overlap_seconds) of the last *completed*
        #: prediction — what the pipelined autoscale observation feeds the
        #: control loop at the next collect boundary.
        self._last_predict: Tuple[float, float] = (0.0, 0.0)
        self._occupancy = _StageOccupancy(self._clock)
        #: Collection-phase worker pool (serial when ``collect_workers`` is
        #: None); executors spin up lazily on the first pooled batch and are
        #: torn down by :meth:`stop`.  With ``config.autoscale`` set, the
        #: pool starts at ``initial_collect_workers()`` and the autoscaler
        #: resizes it between micro-batches.
        initial_workers = self.config.initial_collect_workers()
        self._collect_pool = CollectionPool(
            copilot.collection,
            workers=initial_workers,
            clock=self._clock,
        )
        self._autoscaler: Optional[PoolAutoscaler] = None
        if self.config.autoscale is not None:
            self._autoscaler = PoolAutoscaler(
                self.config.autoscale,
                minimum=self.config.collect_workers_min,
                maximum=self.config.collect_workers_max,
                initial=initial_workers,
                max_batch=self.config.max_batch,
                clock=self._clock,
            )

    # ------------------------------------------------------------------ submit
    def submit(self, alert: Alert) -> "Future[DiagnosisReport]":
        """Queue one alert; the future resolves when its micro-batch flushes.

        With ``block_when_full`` (the default) a full queue applies
        backpressure by blocking the submitter; otherwise
        :class:`IngestQueueFull` is raised so the caller can shed load.
        """
        future: "Future[DiagnosisReport]" = Future()
        item = (alert, future)
        # Count the submission *before* enqueueing: once the item is in the
        # queue a concurrent flush may process it immediately, and a stats
        # snapshot taken in that window must never show processed >
        # submitted.  A failed load-shed put rolls the counter back (the
        # alert never entered the queue).
        with self._stats_lock:
            self._ingest_stats.submitted += 1
        if self.config.block_when_full:
            self._queue.put(item)
        else:
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                with self._stats_lock:
                    self._ingest_stats.submitted -= 1
                raise IngestQueueFull(
                    f"ingest queue full ({self.config.queue_capacity} alerts queued)"
                ) from None
        with self._stats_lock:
            self._ingest_stats.max_queue_depth = max(
                self._ingest_stats.max_queue_depth, self._queue.qsize()
            )
        return future

    def submit_many(self, alerts: Sequence[Alert]) -> List["Future[DiagnosisReport]"]:
        """Queue a burst of alerts, one future per alert.

        Bulk fast path: the whole burst is counted under one stats-lock
        acquisition (instead of two per alert) and the worker is woken once
        after the last enqueue.  Counter semantics match per-alert
        ``submit`` exactly — the burst is counted as submitted *before* any
        item enters the queue, so a concurrent flush can never observe
        ``processed > submitted``; a load-shed ``put_nowait`` hitting a
        full queue rolls back the count of the items that never made it in
        and raises :class:`IngestQueueFull` carrying the already-enqueued
        prefix's futures (``exc.enqueued``) — that prefix stays queued and
        resolves at the next flush, as it would with per-alert submits.
        A burst is not a batch: a live worker that wakes while the burst is
        still being enqueued takes what has arrived and starts on it.
        """
        alerts = list(alerts)
        if not alerts:
            return []
        futures: List["Future[DiagnosisReport]"] = [Future() for _ in alerts]
        with self._stats_lock:
            self._ingest_stats.submitted += len(alerts)
        enqueued = 0
        try:
            for alert, future in zip(alerts, futures):
                if self.config.block_when_full:
                    self._queue.put((alert, future))
                else:
                    try:
                        self._queue.put_nowait((alert, future))
                    except queue.Full:
                        with self._stats_lock:
                            self._ingest_stats.submitted -= len(alerts) - enqueued
                        raise IngestQueueFull(
                            f"ingest queue full ({self.config.queue_capacity} "
                            "alerts queued)",
                            enqueued=futures[:enqueued],
                        ) from None
                enqueued += 1
        finally:
            if enqueued:
                with self._stats_lock:
                    self._ingest_stats.max_queue_depth = max(
                        self._ingest_stats.max_queue_depth, self._queue.qsize()
                    )
                # One wake for the whole burst: a worker parked on a fake
                # clock re-polls the queue on wake and finds everything
                # enqueued so far (the real clock's wake is a no-op — its
                # timed queue get needs no nudge).
                self._clock.wake()
        return futures

    # -------------------------------------------------------------- background
    def start(self) -> "StreamIngestor":
        """Spawn the background worker draining the queue continuously."""
        if self._worker is not None and self._worker.is_alive():
            return self
        self._stopping.clear()
        self._worker = threading.Thread(
            target=self._run, name="rcacopilot-stream-ingestor", daemon=True
        )
        self._worker.start()
        return self

    def stop(self, flush: bool = True) -> None:
        """Stop the worker; by default drain whatever is still queued.

        The worker exits the first time it sees the stop signal between
        batches, so an alert enqueued between that look and the join would
        be stranded by a single flush pass; the drain therefore loops until
        a pass finds the queue empty.  Every alert whose ``submit()``
        happened-before the ``stop()`` call is guaranteed processed when
        ``stop()`` returns.  A submit *racing* ``stop()`` from another
        thread may land after the drain's final empty check; such an alert
        is never lost — it stays queued and its future resolves at the next
        ``flush()`` or ``start()`` (post-stop use is supported; the
        collection pool, torn down here, is lazily recreated).

        Idempotent and exception safe: a repeated ``stop()`` (or one after
        a worker crash) is a cheap no-op, and even if the final drain
        raises, the prediction lane and the collection pool are still torn
        down — no threads or shared memory outlive a ``stop()`` call.
        """
        self._stopping.set()
        if self._worker is not None:
            # Wake-until-joined: a worker parked on a fake clock has no
            # real timeout to fall out of, and a single wake() can land in
            # the instant between the worker's stop check and its next
            # park, where it affects nobody.  Re-issuing the wake on a
            # short real-time join loop closes that race without the clock
            # having to remember wakes (no-op wakes are free; on the real
            # clock the worker's own poll timeout bounds the wait anyway).
            while self._worker.is_alive():
                self._clock.wake()
                self._worker.join(timeout=0.05)
            self._worker = None
        try:
            if flush:
                while True:
                    self.flush()
                    if self._queue.empty():
                        break
            # Pipelined: wait out every in-flight prediction (their
            # per-alert futures resolve inside the prediction lane), then
            # retire the lane itself; post-stop flush() lazily recreates
            # it, mirroring the collection pool.
            self._drain_predictions()
        finally:
            executor, self._predict_executor = self._predict_executor, None
            try:
                if executor is not None:
                    executor.shutdown(wait=True)
            finally:
                self._collect_pool.close()

    def __enter__(self) -> "StreamIngestor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        """Worker loop: block for one alert, take what else is queued, process.

        The only wait is for the *first* alert, through the injected clock
        (a fake clock parks the thread until woken or advanced), re-armed
        every ``STOP_POLL_SECONDS`` to look at the stop signal.  The rest is
        gathered without blocking and cut on ``"size"`` or ``"idle"``.
        """
        # Never park once the stop signal is up: stop()'s wake() is consumed
        # by the wait it lands in, so a later park on a fake clock could
        # last forever.  stop() drains whatever is still queued.
        while not self._stopping.is_set():
            try:
                batch = [self._clock.wait_queue(self._queue, STOP_POLL_SECONDS)]
            except queue.Empty:
                continue
            try:
                while len(batch) < self.config.max_batch:
                    batch.append(self._queue.get_nowait())
            except queue.Empty:  # nothing queued, or every lane at its cap
                pass
            reason = "size" if len(batch) >= self.config.max_batch else "idle"
            # Last line of defence: an exception that escapes batch
            # processing (infrastructure failure outside the per-alert
            # containment) must neither strand the batch's futures nor
            # kill the worker loop — later submissions still have a
            # consumer.
            try:
                if self._pipelined:
                    self._pipeline_process(batch, reason)
                else:
                    self._process(batch, reason)
            except Exception as exc:  # noqa: BLE001 - contained to the batch
                self._fail_batch(batch, reason, exc)

    # ------------------------------------------------------------------ manual
    def flush(self, reason: str = "manual") -> List["DiagnosisReport"]:
        """Synchronously process everything queued right now (manual mode).

        Returns the successful reports in submission order; alerts whose
        collection failed are resolved through their futures only.  Batches
        are dequeued one ``max_batch`` chunk at a time — not snapshotted up
        front — so the queue depth the autoscaler (and telemetry) sees at
        each batch boundary reflects the real remaining backlog; the total
        drained is still bounded by the depth at call time, so a concurrent
        producer (or a done-callback that resubmits) cannot keep ``flush``
        from returning.

        ``reason`` labels the flush in ``IngestStats.flush_reasons``
        (default ``"manual"``).  An external driver that takes the
        decision itself — the record/replay bus applies its size/latency
        rule on the recording's timeline and drives the ingestor manually —
        passes ``"size"``/``"latency"``, so a replay's stats are
        bit-identical at every speed.

        Pipelined (``pipeline_depth`` >= 2), the chunks flow through the
        two-stage pipeline — chunk k+1 collects while chunk k predicts —
        and ``flush`` gathers the wave futures in submission order before
        returning, so its result (and every per-alert future it covers) is
        exactly the barrier path's.
        """
        budget = self._queue.qsize()
        reports: List["DiagnosisReport"] = []
        waves: List["Future[List[DiagnosisReport]]"] = []
        while budget > 0:
            batch: List[Tuple[Alert, Future]] = []
            while len(batch) < self.config.max_batch and budget > 0:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    budget = 0
                    break
                budget -= 1
            if not batch:
                break
            try:
                if self._pipelined:
                    waves.append(self._pipeline_process(batch, reason))
                else:
                    reports.extend(self._process(batch, reason))
            except Exception as exc:  # noqa: BLE001 - contained to the batch
                self._fail_batch(batch, reason, exc)
        for wave_future in waves:
            reports.extend(wave_future.result())
        return reports

    # ----------------------------------------------------------------- process
    def _process(
        self, items: List[Tuple[Alert, Future]], reason: str
    ) -> List["DiagnosisReport"]:
        """Barrier execution: collect and predict one micro-batch back to back.

        Phase 1 (collection) parses and collects every alert — serially or
        on the collection worker pool, per ``IngestConfig.collect_workers``
        — with incident ids pre-reserved in submission order and outcomes
        folded back in submission order.  A per-alert collection failure
        resolves only that alert's future with the exception.  Phase 2
        (prediction) runs once over the surviving outcomes through
        ``diagnose_collected``, exactly as ``observe_many`` would.  The
        returned list holds the successful reports in submission order.
        """
        with self._lock:
            wave = self._collect_wave(items, reason)
            if wave is None:
                return []
            reports, predict_error, predict_seconds = self._predict_locked(wave)
            if self._autoscaler is not None:
                self._apply_pool_target(
                    self._autoscaler.observe(
                        utilization=wave.utilization,
                        queue_depth=self._queue.qsize(),
                        collect_seconds=wave.collect_seconds,
                        predict_seconds=predict_seconds,
                    )
                )
                wave.autoscale_metrics = self._autoscaler.stats_dict()
        return self._finish_wave(wave, reports, predict_error, predict_seconds)

    def _pipeline_process(
        self, items: List[Tuple[Alert, Future]], reason: str
    ) -> "Future[List[DiagnosisReport]]":
        """Pipelined execution: collect now, hand off to the prediction lane.

        Collects the wave under the collection lock (serializing waves and
        pool resizes against concurrent flushers), applies the autoscale
        observation fed by the last *completed* prediction, then blocks on
        a bounded in-flight slot before submitting the wave to the
        single-slot prediction executor — that acquisition is the
        backpressure that makes this a double-buffered pipeline instead of
        an unbounded handoff queue.  The returned wave future resolves to
        the wave's successful reports once prediction, future resolution,
        stats fold, and telemetry export have all completed.
        """
        with self._collect_lock:
            wave = self._collect_wave(items, reason)
            if wave is None:
                empty: "Future[List[DiagnosisReport]]" = Future()
                empty.set_result([])
                return empty
            if self._autoscaler is not None:
                last_predict_seconds, last_overlap_seconds = self._last_predict
                self._apply_pool_target(
                    self._autoscaler.observe(
                        utilization=wave.utilization,
                        queue_depth=self._queue.qsize(),
                        collect_seconds=wave.collect_seconds,
                        predict_seconds=last_predict_seconds,
                        overlap_seconds=last_overlap_seconds,
                    )
                )
                wave.autoscale_metrics = self._autoscaler.stats_dict()
            assert self._predict_slots is not None
            self._predict_slots.acquire()
            executor = self._predict_executor
            if executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="rcacopilot-predict"
                )
                self._predict_executor = executor
            wave_future = executor.submit(self._predict_wave, wave)
            with self._pending_lock:
                self._pending_predictions.append(wave_future)
            wave_future.add_done_callback(self._forget_prediction)
            return wave_future

    def _forget_prediction(self, wave_future: Future) -> None:
        with self._pending_lock:
            try:
                self._pending_predictions.remove(wave_future)
            except ValueError:  # pragma: no cover - double-removal guard
                pass

    def _predict_wave(self, wave: _Wave) -> List["DiagnosisReport"]:
        """Prediction-lane task: predict one wave and finish it.

        Takes the ingestion lock only around the prediction itself, so
        mid-stream feedback serializes with predictions exactly as it does
        with barrier batches — wave N's feedback/index updates commit
        before wave N+1's prediction reads the index.  The in-flight slot
        is released before futures resolve, so a done-callback that
        submits more alerts can never deadlock the collecting thread.
        """
        try:
            with self._lock:
                reports, predict_error, predict_seconds = self._predict_locked(wave)
        finally:
            if self._predict_slots is not None:
                self._predict_slots.release()
        try:
            return self._finish_wave(wave, reports, predict_error, predict_seconds)
        except Exception as exc:  # noqa: BLE001 - contained to the wave
            # An exception out of the finish path (telemetry export, a
            # done-callback) on the prediction lane must not strand the
            # wave's futures: resolve whatever is still pending and let
            # the wave future report an empty batch.
            self._fail_batch(wave.items, wave.reason, exc)
            return []

    def _drain_predictions(self) -> None:
        """Wait until no prediction is in flight (pipelined execution only)."""
        while True:
            with self._pending_lock:
                pending = list(self._pending_predictions)
            if not pending:
                return
            futures_wait(pending)

    def _collect_wave(
        self, items: List[Tuple[Alert, Future]], reason: str
    ) -> Optional[_Wave]:
        """Phase 1: parse + collect one micro-batch into a :class:`_Wave`.

        The caller serializes waves — via the ingestion lock (barrier) or
        the collection lock (pipelined) — so pool resizes only ever happen
        here, at a collect boundary with no collect task in flight (an
        earlier wave's *prediction* may still be running; the pool is not
        involved in it).
        """
        # Transition every future to RUNNING first: a future whose caller
        # cancelled it while queued is dropped from the batch, and the ones
        # that remain can no longer be cancelled, so resolving them later
        # cannot raise InvalidStateError and kill the worker.
        items = [
            item for item in items if item[1].set_running_or_notify_cancel()
        ]
        if not items:
            return None
        alerts = [alert for alert, _ in items]
        # Collect boundary: no collect task is in flight, so autoscale
        # resizes are safe here and nowhere else.  The pre-batch decision
        # reacts to an already-visible backlog (burst grow); the post-batch
        # observation feeds the loop what a batch measured.
        if self._autoscaler is not None:
            self._apply_pool_target(
                self._autoscaler.before_batch(self._queue.qsize())
            )
        self._occupancy.collect_start()
        collect_started = self._clock.monotonic()
        incident_ids = self._reserve_incident_ids(items)
        results = self._collect_pool.run(alerts, incident_ids)
        collect_seconds = self._clock.monotonic() - collect_started
        self._occupancy.collect_end()
        pool_size = self._collect_pool.pool_size
        # Utilisation counts successful collections only, on every
        # backend: a task that died in a worker has no observable
        # elapsed time (its future carries just the exception), so
        # including serial-side failure timings would make the gauge
        # diverge between pool shapes.
        busy_seconds = sum(result.seconds for result in results if result.ok)
        lanes = pool_size if pool_size else 1
        utilization = (
            min(busy_seconds / (lanes * collect_seconds), 1.0)
            if collect_seconds > 0.0
            else 0.0
        )
        return _Wave(
            items=items,
            results=results,
            reason=reason,
            collect_started=collect_started,
            collect_seconds=collect_seconds,
            pool_size=pool_size,
            utilization=utilization,
        )

    def _reserve_incident_ids(
        self, items: List[Tuple[Alert, Future]]
    ) -> List[str]:
        """Pre-reserve one incident id per item, in submission order.

        Subclasses that partition the id space (the tenant router draws
        each alert's id from its tenant's own counter) override this; the
        single-tenant default reserves from the copilot's collection stage.
        """
        return [self.copilot.collection.next_incident_id() for _ in items]

    def _predict_locked(
        self, wave: _Wave
    ) -> Tuple[List["DiagnosisReport"], Optional[Exception], float]:
        """Phase 2 under the ingestion lock: batched prediction of one wave."""
        succeeded = [result for result in wave.results if result.ok]
        self._occupancy.predict_start()
        overlap_before = self._occupancy.overlap_total()
        predict_started = self._clock.monotonic()
        predict_error: Optional[Exception] = None
        try:
            reports = self._diagnose_wave(succeeded, wave)
        except Exception as exc:  # noqa: BLE001 - failures flow to the futures
            predict_error = exc
            reports = []
        predict_seconds = self._clock.monotonic() - predict_started
        self._occupancy.predict_end()
        self._last_predict = (
            predict_seconds,
            self._occupancy.overlap_total() - overlap_before,
        )
        return reports, predict_error, predict_seconds

    def _diagnose_wave(
        self, succeeded: List[CollectResult], wave: _Wave
    ) -> List["DiagnosisReport"]:
        """Run the batched prediction over one wave's surviving outcomes.

        Called under the ingestion lock from :meth:`_predict_locked`.
        Subclasses that partition prediction state (the tenant router
        groups the wave per tenant and predicts over each tenant's own
        index while sharing one deduplicated LLM batch) override this;
        the default is the copilot's single-index batch path.  The
        returned reports must align 1:1 with ``succeeded``.
        """
        return self.copilot.diagnose_collected(
            [result.outcome for result in succeeded],
            started=wave.collect_started,
            now=self._clock.monotonic,
            timestamp=self._clock.time(),
        )

    def _finish_wave(
        self,
        wave: _Wave,
        reports: List["DiagnosisReport"],
        predict_error: Optional[Exception],
        predict_seconds: float,
    ) -> List["DiagnosisReport"]:
        """Resolve one wave's futures, fold its stats, export its telemetry.

        Runs outside the ingestion lock — set_result/set_exception run
        done-callbacks synchronously, and a callback that re-enters the
        ingestor (record_feedback, submit) would deadlock on the
        non-reentrant lock.  Barrier and pipelined execution share this
        path; pipelined, it runs on the single-slot prediction lane, so
        waves finish — and their stats fold — strictly in submission
        order, keeping every counter identical to barrier execution.
        """
        items, results = wave.items, wave.results
        succeeded = [result for result in results if result.ok]
        for result in results:
            if not result.ok:
                items[result.index][1].set_exception(result.error)
        if predict_error is not None:
            for result in succeeded:
                items[result.index][1].set_exception(predict_error)
            succeeded = []
        for result, report in zip(succeeded, reports):
            items[result.index][1].set_result(report)
        stats = self._ingest_stats
        with self._stats_lock:
            stats.processed += len(items)
            stats.batches += 1
            stats.last_flush_size = len(items)
            stats.collect_failures += sum(1 for result in results if not result.ok)
            stats.flush_reasons[wave.reason] = (
                stats.flush_reasons.get(wave.reason, 0) + 1
            )
            self._fold_wave_locked(wave)
            exported = stats.as_dict()
        with self._pending_lock:
            predict_inflight = len(self._pending_predictions)
        metrics = {
            "rcacopilot.ingest.queue_depth": float(self._queue.qsize()),
            "rcacopilot.ingest.flush_size": float(len(items)),
            "rcacopilot.ingest.collect_pool_size": float(wave.pool_size),
            "rcacopilot.ingest.collect_seconds": wave.collect_seconds,
            "rcacopilot.ingest.predict_seconds": predict_seconds,
            "rcacopilot.ingest.collect_utilization": wave.utilization,
            "rcacopilot.ingest.collect_worker_seconds_total": (
                self._collect_pool.worker_seconds
            ),
            "rcacopilot.ingest.predict_inflight": float(predict_inflight),
            **{
                f"rcacopilot.ingest.{suffix}": value
                for suffix, value in self._occupancy.snapshot().items()
            },
            **{
                f"rcacopilot.ingest.{suffix}": value
                for suffix, value in exported.items()
            },
        }
        if wave.autoscale_metrics is not None:
            metrics.update(
                {
                    f"rcacopilot.ingest.autoscale_{suffix}": value
                    for suffix, value in wave.autoscale_metrics.items()
                }
            )
        metrics.update(self._wave_metrics(wave))
        self.hub.emit_metrics(
            metrics,
            machine="stream-ingestor",
            timestamp=self._clock.time(),
        )
        self._wave_finished(wave)
        return reports

    def _fold_wave_locked(self, wave: _Wave) -> None:
        """Per-wave stats hook, called under the stats lock after the global
        fold; the tenant router folds per-tenant counters here so every
        locked snapshot sees the global and tenant views move together."""

    def _wave_metrics(self, wave: _Wave) -> Dict[str, float]:
        """Extra per-wave gauges merged into the batch's telemetry export
        (the tenant router contributes ``rcacopilot.tenant.<id>.*``)."""
        return {}

    def _wave_finished(self, wave: _Wave) -> None:
        """Post-export hook: the wave's futures are resolved and its stats
        folded.  The tenant router retires the wave's in-flight quota and
        routing entries here."""

    def _fail_batch(
        self,
        items: List[Tuple[Alert, Future]],
        reason: str,
        exc: Exception,
    ) -> None:
        """Resolve a crashed batch's still-pending futures with ``exc``.

        The normal paths resolve futures in :meth:`_finish_wave` (per-alert
        collect failures, prediction errors); this is the containment for
        everything else — an exception escaping batch processing itself.
        Only futures not yet resolved are touched and only those are folded
        into the stats, so a batch that crashed *after* its finish fold
        cannot double-count (``processed <= submitted`` stays invariant).
        """
        failed_items: List[Tuple[Alert, Future]] = []
        for item in items:
            future = item[1]
            if future.done():
                continue
            try:
                future.set_running_or_notify_cancel()
            except Exception:  # noqa: BLE001 - already RUNNING is fine
                pass
            try:
                future.set_exception(exc)
                failed_items.append(item)
            except Exception:  # noqa: BLE001 - resolved/cancelled meanwhile
                pass
        failed = len(failed_items)
        if failed:
            with self._stats_lock:
                stats = self._ingest_stats
                stats.processed += failed
                stats.batches += 1
                stats.last_flush_size = failed
                stats.worker_errors += 1
                stats.flush_reasons[reason] = stats.flush_reasons.get(reason, 0) + 1
                self._fold_failed_locked(failed_items, reason)
        self._batch_failed(items)

    def _fold_failed_locked(
        self, failed_items: List[Tuple[Alert, Future]], reason: str
    ) -> None:
        """Stats hook for a crashed batch, under the stats lock; the tenant
        router folds the failed items into their tenants' counters here."""

    def _batch_failed(self, items: List[Tuple[Alert, Future]]) -> None:
        """Containment-path cleanup hook (outside the stats lock), called
        with the whole batch — including items whose futures an earlier
        partial finish already resolved.  Must be idempotent; the tenant
        router retires any still-tracked quota and routing entries here."""

    def _apply_pool_target(self, target: int) -> None:
        """Resize the collection pool to the autoscaler's target (if changed).

        Callers hold the ingestion lock and sit at a batch boundary, the
        only point where no collect task can be in flight.
        """
        if target != self._collect_pool.workers:
            self._collect_pool.resize(target)

    # ---------------------------------------------------------------- feedback
    def record_feedback(self, incident: Incident, confirmed_category: str) -> None:
        """Fold OCE feedback into the live index, serialized with the stream.

        Takes the same lock as the prediction phase, so the correction is
        guaranteed to be visible to every micro-batch whose prediction
        starts after this call returns and never lands mid-prediction.
        Pipelined execution preserves the guarantee: predictions are
        serialized under this lock even while later waves collect
        concurrently.
        """
        with self._lock:
            self.copilot.record_feedback(incident, confirmed_category)

    # ------------------------------------------------------------------- stats
    def stats(self) -> IngestStats:
        """A consistent snapshot (copy) of the ingestion counters.

        Safe from any thread while batches flush: all counter reads happen
        under the stats lock, and the returned object (including its
        flush-reason dict) is detached from the live instance, so a caller
        may iterate or :meth:`IngestStats.as_dict` it at leisure.
        """
        with self._stats_lock:
            return replace(
                self._ingest_stats,
                flush_reasons=dict(self._ingest_stats.flush_reasons),
            )

    def stats_dict(self) -> Dict[str, float]:
        """The counters as a flat metric mapping.

        The :class:`IngestStats` entries are snapshotted under the stats
        lock exactly as :meth:`stats` does.  With autoscaling enabled, the
        mapping additionally carries the control loop's ``autoscale_*``
        entries (current/min/max pool size, utilization EWMA, scale-event
        counters) — these live here, not in :class:`IngestStats`, because
        the ingest counters are contractually identical across pool shapes
        while scale events are by nature specific to the autoscaled run.
        The autoscale entries are read without the ingestion lock (taking
        it would block monitoring behind a running batch), so a reader
        racing a flush may see them mid-update — e.g. a grown pool size
        whose event counter has not ticked yet; they are exact whenever no
        batch is in flight.

        The mapping also carries the pipeline gauges: ``predict_inflight``
        (waves currently on the prediction lane; always 0 in barrier
        mode), ``pipeline_overlap_seconds`` (cumulative seconds a collect
        and a predict phase ran concurrently; identically 0 in barrier
        mode), and the ``collect_busy_fraction``/``predict_busy_fraction``
        per-stage busy fractions over the stream's active span.
        """
        flat = self.stats().as_dict()
        if self._autoscaler is not None:
            for suffix, value in self._autoscaler.stats_dict().items():
                flat[f"autoscale_{suffix}"] = value
        with self._pending_lock:
            flat["predict_inflight"] = float(len(self._pending_predictions))
        flat.update(self._occupancy.snapshot())
        return flat

    @property
    def clock(self) -> Clock:
        """The ingestor's injected time source (read-only).

        Exposed so external drivers — the record/replay bus's recorder and
        replayer — can timestamp and pace on exactly the timeline the
        ingestor's own deadlines and telemetry run on.
        """
        return self._clock

    @property
    def collect_pool_size(self) -> int:
        """Current collection pool size (0 = serial collection)."""
        return self._collect_pool.pool_size

    @property
    def queue_depth(self) -> int:
        """Alerts currently waiting in the bounded queue."""
        return self._queue.qsize()
