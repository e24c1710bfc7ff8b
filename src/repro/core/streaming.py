"""Streaming micro-batch ingestion front for the always-on deployment.

``RCACopilot.diagnose_many`` batches incidents the *caller* has already
gathered; a production deployment instead receives a continuous alert
stream.  :class:`StreamIngestor` closes that gap: alerts are submitted into
a bounded queue and grouped into micro-batches automatically.  The live
worker is work-conserving: it blocks only for the first alert, takes
whatever else is already queued (up to ``IngestConfig.max_batch``) and
processes it at once — cut on ``"size"`` when that filled the batch, else on
``"idle"``.  No alert waits on a timer; batches form only while the worker
is busy.  That is tested on a fake clock, but its effect on a *saturated*
worker is unmeasured: the one benchmarked live workload runs ≈12% busy,
where batches are ≈1 alert and the batch economies (one retrieval pass, one
deduplicated LLM batch) are given up.  ``IngestConfig.max_latency_seconds``
is read only by the record/replay bus (:mod:`repro.bus.replayer`).

Two driving modes share all of the batching logic:

* **background** — ``start()`` spawns a daemon worker that drains the queue
  continuously; ``submit()`` returns a :class:`concurrent.futures.Future`
  resolving to the alert's :class:`~repro.core.pipeline.DiagnosisReport`;
* **manual** — without a worker, ``flush()`` synchronously processes
  whatever is queued (deterministic, used by tests and replay tooling).

Each flushed micro-batch (a *wave*) runs in two phases mirroring the paper's
collection/prediction split: the **collection phase** (alert parsing +
handler action graphs) optionally fans out to a
:class:`~repro.core.collect_pool.CollectionPool` of threads
(``IngestConfig.collect_workers``), which reserves incident ids and folds
outcomes back in submission order; the **prediction phase** then runs once
over the whole wave (``diagnose_collected``: batch embed, one retrieval
pass, deduplicated LLM batch).  Reports, feedback effects, and ingest
counters are therefore identical whether collection ran serially or on a
pool.  A handler raising during the collection phase fails only its own
alert's future — the rest of the wave still predicts, and the pool survives
for the next wave.

One rule schedules every wave: it holds one of
:attr:`IngestConfig.pipeline_depth` slots from the start of its collection
to the end of its prediction, collects under the collection lock and
predicts under the ingestion lock that ``record_feedback`` also takes.
Depth N is thus up to N waves between collection start and prediction end.
At depth 1 the flushing thread predicts its own wave: barrier execution,
with done-callbacks on the flushing thread.  At depth >= 2 a collected wave
goes to a one-thread prediction lane, so the next wave collects while it
predicts.  Waves predict in collection order either way, so reports,
feedback effects, and ingest counters are value-identical at every depth;
the lane removes only the inter-wave stall.  A done-callback may ``submit``
and ``record_feedback`` at any depth, and ``flush()`` at depth 1 only: at
depth >= 2 it runs on the lane, and its wave would queue behind itself.

Every timing path (worker polls, stage occupancy, report elapsed times)
reads the injected :class:`~repro.core.clock.Clock`, making the whole
control surface deterministic under the test harness's fake clock.

OCE feedback can be folded in mid-stream through
:meth:`StreamIngestor.record_feedback`, which serializes with batch
processing so the updated index is visible to the very next micro-batch.
The ingestor's own counters live in :class:`IngestStats` and are read through
:meth:`StreamIngestor.stats` / :meth:`StreamIngestor.stats_dict`; nothing is
written into the telemetry hub the handlers diagnose from.

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
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..incidents import Incident
from ..monitors import Alert
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
    relative to the observed span (first stage event to now), so depth 1
    reports zero overlap while depth >= 2 reports exactly the wall clock
    the pipeline hid.  Thread-safe: the collect side ticks from the
    flushing thread, the predict side from it or the prediction lane.
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


def _resolved(reports: List["DiagnosisReport"]) -> "Future[List[DiagnosisReport]]":
    """An already-resolved wave future."""
    done: "Future[List[DiagnosisReport]]" = Future()
    done.set_result(reports)
    return done


class StreamIngestor:
    """Bounded queue + micro-batching window in front of the copilot's two stages."""

    def __init__(
        self,
        copilot: "RCACopilot",
        config: Optional[IngestConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.copilot = copilot
        self.config = config or getattr(copilot.config, "ingest", None) or IngestConfig()
        #: Time source for the worker's stop poll and phase timings.  Tests
        #: inject a step-controlled fake clock so every timing path runs
        #: deterministically.
        self._clock = clock or MONOTONIC_CLOCK
        self._queue: "queue.Queue[Tuple[Alert, Future]]" = queue.Queue(
            maxsize=self.config.queue_capacity
        )
        # A wave holds one of ``pipeline_depth`` slots from its collection
        # start to its prediction end.  It collects under _collect_lock (one
        # wave on the pool at a time, incident ids reserved in wave order)
        # and predicts under _lock, which record_feedback also takes.
        # _stats_lock guards the counters and _predict_inflight.  Lock order:
        #   slot -> _collect_lock -> _stats_lock or the occupancy lock
        #   slot -> _lock -> the occupancy lock
        # No ingestor lock is held while futures resolve, so a done-callback
        # may re-enter the ingestor.
        self._wave_slots = threading.BoundedSemaphore(self.config.pipeline_depth)
        self._collect_lock = threading.Lock()
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._worker: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._ingest_stats = IngestStats()
        #: The one-thread prediction lane of depth >= 2, created lazily;
        #: ``_predict_inflight`` counts the waves handed to it and not yet
        #: finished.
        self._predict_executor: Optional[ThreadPoolExecutor] = None
        self._predict_inflight = 0
        self._occupancy = _StageOccupancy(self._clock)
        #: Collection-phase worker pool (serial when ``collect_workers`` is
        #: None); executors spin up lazily on the first pooled batch and are
        #: torn down by :meth:`stop`.
        self._collect_pool = CollectionPool(
            copilot.collection, workers=self.config.collect_workers
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
        finally:
            # Retiring the prediction lane waits out every wave on it.  The
            # collection lock makes a racing flush hand off before the
            # shutdown or to a new lane; post-stop flush() lazily recreates
            # it, mirroring the collection pool.
            with self._collect_lock:
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
            except queue.Empty:  # nothing more queued
                pass
            reason = "size" if len(batch) >= self.config.max_batch else "idle"
            self._process(batch, reason)

    # ------------------------------------------------------------------ manual
    def flush(self, reason: str = "manual") -> List["DiagnosisReport"]:
        """Synchronously process everything queued right now (manual mode).

        Returns the successful reports in submission order; alerts whose
        collection failed are resolved through their futures only.  Batches
        are dequeued one ``max_batch`` chunk at a time; the total drained is
        bounded by the depth at call time, so a concurrent producer (or a
        done-callback that resubmits) cannot keep ``flush`` from returning.

        ``reason`` labels the flush in ``IngestStats.flush_reasons``
        (default ``"manual"``).  An external driver that takes the
        decision itself — the record/replay bus applies its size/latency
        rule on the recording's timeline and drives the ingestor manually —
        passes ``"size"``/``"latency"``, so a replay's stats are
        bit-identical at every speed.

        At ``pipeline_depth`` >= 2 chunk k+1 collects while chunk k
        predicts, and ``flush`` waits for every chunk's wave before
        returning, so its result (and every per-alert future it covers) is
        exactly depth 1's.
        """
        budget = self._queue.qsize()
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
            waves.append(self._process(batch, reason))
        return [report for wave in waves for report in wave.result()]

    # ----------------------------------------------------------------- process
    def _process(
        self, items: List[Tuple[Alert, Future]], reason: str
    ) -> "Future[List[DiagnosisReport]]":
        """Run one micro-batch as a wave; the future resolves to its reports.

        The wave takes a slot and collects under the collection lock.  At
        depth 1 this thread then predicts and finishes it, and the returned
        future is already resolved: barrier execution.  At depth >= 2 the
        wave goes to the prediction lane while the collection lock is still
        held, so the lane predicts waves in collection order, and the
        returned future is the lane's.  Either way the slot comes back when
        the prediction ends.

        Last line of defence: an exception escaping collection or the
        hand-off (an infrastructure failure outside the per-alert
        containment) fails the batch's pending futures instead of reaching
        the caller, so the worker loop keeps running and ``flush`` keeps
        its other waves.
        """
        self._wave_slots.acquire()
        try:
            with self._collect_lock:
                wave = self._collect_wave(items, reason)
                if wave is not None and self.config.pipeline_depth > 1:
                    return self._hand_off(wave)
        except Exception as exc:  # noqa: BLE001 - contained to the batch
            self._wave_slots.release()
            self._fail_batch(items, reason, exc)
            return _resolved([])
        if wave is None:
            self._wave_slots.release()
            return _resolved([])
        return _resolved(self._predict_wave(wave))

    def _hand_off(self, wave: _Wave) -> "Future[List[DiagnosisReport]]":
        """Queue a collected wave on the one-thread prediction lane."""
        if self._predict_executor is None:
            self._predict_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="rcacopilot-predict"
            )
        with self._stats_lock:
            self._predict_inflight += 1
        return self._predict_executor.submit(self._predict_wave, wave)

    def _predict_wave(self, wave: _Wave) -> List["DiagnosisReport"]:
        """Phase 2: predict one wave under the ingestion lock, then finish it.

        Mid-stream feedback takes the same lock, so wave N's feedback and
        index updates commit before wave N+1's prediction reads the index.
        The wave's slot is released when its prediction ends, before its
        futures resolve, so a done-callback can start the next wave.  An
        exception out of the prediction or finish path must not strand the
        wave's futures: whatever is still pending fails with it, and the
        wave reports an empty batch.
        """
        try:
            try:
                with self._lock:
                    self._occupancy.predict_start()
                    predict_error: Optional[Exception] = None
                    try:
                        reports = self.copilot.diagnose_collected(
                            [result.outcome for result in wave.results if result.ok],
                            started=wave.collect_started,
                            now=self._clock.monotonic,
                        )
                    except Exception as exc:  # noqa: BLE001 - failures flow to the futures
                        predict_error, reports = exc, []
                    self._occupancy.predict_end()
            finally:
                self._wave_slots.release()
            return self._finish_wave(wave, reports, predict_error)
        except Exception as exc:  # noqa: BLE001 - contained to the wave
            self._fail_batch(wave.items, wave.reason, exc)
            return []
        finally:
            if self.config.pipeline_depth > 1:
                with self._stats_lock:
                    self._predict_inflight -= 1

    def _collect_wave(
        self, items: List[Tuple[Alert, Future]], reason: str
    ) -> Optional[_Wave]:
        """Phase 1: parse + collect one micro-batch into a :class:`_Wave`.

        Runs under the collection lock, so the pool runs one wave at a time
        (at depth >= 2 an earlier wave's *prediction* may still be running;
        the pool is not involved in it).
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
        self._occupancy.collect_start()
        collect_started = self._clock.monotonic()
        results = self._collect_pool.run([alert for alert, _ in items])
        self._occupancy.collect_end()
        return _Wave(
            items=items, results=results, reason=reason, collect_started=collect_started
        )

    def _finish_wave(
        self,
        wave: _Wave,
        reports: List["DiagnosisReport"],
        predict_error: Optional[Exception],
    ) -> List["DiagnosisReport"]:
        """Resolve one wave's futures and fold its stats.

        Runs with no ingestor lock held — set_result/set_exception run
        done-callbacks synchronously, and a callback that re-enters the
        ingestor (record_feedback, submit) would deadlock on a
        non-reentrant lock.  At depth >= 2 it runs on the one-thread
        prediction lane, so a flush's waves finish — and their stats fold —
        in collection order, as they do at depth 1.
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
        return reports

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
        failed = 0
        for _, future in items:
            if future.done():
                continue
            try:
                future.set_running_or_notify_cancel()
            except Exception:  # noqa: BLE001 - already RUNNING is fine
                pass
            try:
                future.set_exception(exc)
                failed += 1
            except Exception:  # noqa: BLE001 - resolved/cancelled meanwhile
                pass
        if failed:
            with self._stats_lock:
                stats = self._ingest_stats
                stats.processed += failed
                stats.batches += 1
                stats.last_flush_size = failed
                stats.worker_errors += 1
                stats.flush_reasons[reason] = stats.flush_reasons.get(reason, 0) + 1

    # ---------------------------------------------------------------- feedback
    def record_feedback(self, incident: Incident, confirmed_category: str) -> None:
        """Fold OCE feedback into the live index, serialized with the stream.

        Takes the same lock as the prediction phase, so the correction is
        guaranteed to be visible to every micro-batch whose prediction
        starts after this call returns and never lands mid-prediction.  It
        may land between a wave's collection and its prediction, which
        reads it; collection reads neither the history nor the index.
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
        lock exactly as :meth:`stats` does.  The mapping also carries the
        pipeline gauges: ``predict_inflight`` (waves currently on the
        prediction lane; always 0 at depth 1),
        ``pipeline_overlap_seconds`` (cumulative seconds a collect and a
        predict phase ran concurrently; identically 0 at depth 1), and
        the ``collect_busy_fraction``/``predict_busy_fraction`` per-stage
        busy fractions over the stream's active span.
        """
        flat = self.stats().as_dict()
        with self._stats_lock:
            flat["predict_inflight"] = float(self._predict_inflight)
        flat.update(self._occupancy.snapshot())
        return flat

    @property
    def clock(self) -> Clock:
        """The ingestor's injected time source (read-only).

        Exposed so external drivers — the record/replay bus's recorder and
        replayer — can timestamp and pace on exactly the timeline the
        ingestor's own timings run on.
        """
        return self._clock

    @property
    def queue_depth(self) -> int:
        """Alerts currently waiting in the bounded queue."""
        return self._queue.qsize()
