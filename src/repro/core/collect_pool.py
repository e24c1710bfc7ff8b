"""Concurrent collection worker pool for the streaming ingestion front.

The paper's pipeline splits incident *collection* (handler action graphs:
log pulls, probe queries, correlation lookups) from *prediction* (embed +
retrieve + LLM).  Collection is per-incident and latency-bound — one slow
probe stalls nothing but its own incident — while prediction is throughput-
bound and wants the whole micro-batch at once.  :class:`CollectionPool`
exploits that split: each flushed micro-batch's ``parse_alert`` + ``collect``
calls fan out to a worker pool, and the outcomes are folded back **in
submission order** so the batched prediction phase (and therefore reports,
feedback routing, and ingest counters) is identical to the serial path.

Two execution modes share one result contract, both inside the ingesting
process:

* ``workers=None`` — serial: the exact pre-pool behaviour, run inline in the
  flushing thread.  The parity baseline.
* ``workers=N`` — a :class:`~concurrent.futures.ThreadPoolExecutor` of N
  threads.  Handler queries are read-only over the shared telemetry hub and
  sleep/IO-bound work overlaps even under the GIL.

Every alert of one wave shares one
:class:`~repro.handlers.CoalescingScope`, in either mode: a built-in query
one alert of the wave already ran is answered from its result while no
store it read has been written since (see
:meth:`~repro.core.collection.CollectionStage.collect_many`).

Failures are contained per item: a handler raising (strict mode,
wall-budget overrun) marks only that alert's :class:`CollectResult` as
failed — the rest of the batch still predicts and the pool survives for the
next wave.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..handlers import CoalescingScope
from ..incidents import Incident
from ..monitors import Alert
from .clock import MONOTONIC_CLOCK, Clock
from .collection import CollectionOutcome, CollectionStage


@dataclass
class CollectResult:
    """Outcome of one alert's parse+collect, tagged with its submission slot.

    Exactly one of (``incident`` and ``outcome``) or ``error`` is set.
    ``seconds`` is the worker-side wall time of the parse+collect call — the
    numerator of the pool utilisation metric.
    """

    index: int
    alert: Alert
    incident: Optional[Incident] = None
    outcome: Optional[CollectionOutcome] = None
    error: Optional[BaseException] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when collection produced an outcome for this alert."""
        return self.error is None


class CollectionPool:
    """Fans a micro-batch's parse+collect calls out to a thread pool.

    One pool is owned by one :class:`~repro.core.streaming.StreamIngestor`
    and reused across micro-batches; executors are created lazily on the
    first pooled batch and torn down by :meth:`close`.
    """

    def __init__(
        self,
        stage: CollectionStage,
        workers: Optional[int] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive (or None for serial)")
        self.stage = stage
        self.workers = workers
        #: Time source for per-task wall times and worker-second accounting.
        self.clock = clock or MONOTONIC_CLOCK
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Executors retired by :meth:`resize`; their threads exit on their
        #: own, and :meth:`close` joins them so a stopped ingestor provably
        #: leaks nothing.
        self._retired: List[ThreadPoolExecutor] = []
        #: Scale events applied to this pool (grow + shrink).
        self.resize_events = 0
        #: Collect waves currently inside :meth:`run`.  Under pipelined
        #: ingestion the *prediction* of an earlier wave may still be in
        #: flight while the pool sits at a collect boundary — this counter
        #: is what lets :meth:`resize` tell "collect idle" (safe) apart
        #: from "fully idle", and is exported to the autoscaler's caller.
        self.inflight_waves = 0
        #: Σ pool_size × wave wall time: the capacity paid for, whether or
        #: not it was used.  The autoscaling benchmark's economy metric.
        self.worker_seconds = 0.0

    # ------------------------------------------------------------------- sizing
    @property
    def pool_size(self) -> int:
        """Workers in the pool (0 = serial mode)."""
        return 0 if self.workers is None else self.workers

    def resize(self, workers: int) -> None:
        """Change the worker count; callers must be at a collect boundary.

        Only valid between :meth:`run` calls (the stream ingestor resizes
        under its collection lock, after one wave's collection and before
        the next), so no task is ever in flight across a resize — enforced
        via :attr:`inflight_waves`.  Growing is in-place —
        :class:`ThreadPoolExecutor` spawns threads lazily up to its
        ceiling, so raising the ceiling suffices.  Shrinking retires the
        idle executor instead; the next wave lazily rebuilds at the new
        size.
        """
        if workers < 1:
            raise ValueError("workers must be positive")
        if self.workers is None:
            raise RuntimeError("cannot resize a serial pool")
        if self.inflight_waves:
            raise RuntimeError(
                "cannot resize the collection pool while a collect wave is "
                "in flight (resizes belong at collect boundaries)"
            )
        if workers == self.workers:
            return
        growing = workers > self.workers
        self.workers = workers
        self.resize_events += 1
        if self._executor is None:
            return
        if growing and hasattr(self._executor, "_max_workers"):
            # CPython's ThreadPoolExecutor checks this ceiling on every
            # submit and spawns workers lazily up to it.
            self._executor._max_workers = workers
            return
        self._executor.shutdown(wait=False)
        self._retired.append(self._executor)
        self._executor = None

    # -------------------------------------------------------------------- run
    def run(
        self, alerts: Sequence[Alert], incident_ids: Sequence[str]
    ) -> List[CollectResult]:
        """Parse + collect every alert; results come back in submission order.

        ``incident_ids`` must be pre-reserved (one per alert, in submission
        order) so id assignment is independent of worker interleaving.
        Per-item failures are captured in the results, never raised.  The
        wave's alerts share one query scope, dropped when the wave ends.
        """
        if len(alerts) != len(incident_ids):
            raise ValueError("one pre-reserved incident id is required per alert")
        # Join executors retired by earlier resizes: their workers were told
        # to exit at retire time (the pool was idle), so this is effectively
        # instant — and it keeps _retired from growing without bound on a
        # long-lived stream whose autoscaler flaps.
        self._prune_retired()
        wave_started = self.clock.monotonic()
        self.inflight_waves += 1
        try:
            queries = CoalescingScope()
            tasks = list(enumerate(zip(alerts, incident_ids)))
            if self.workers is None:
                return [
                    self._collect_guarded(index, *task, queries) for index, task in tasks
                ]
            executor = self._ensure_executor()
            futures = [
                executor.submit(self._collect_guarded, index, *task, queries)
                for index, task in tasks
            ]
            return [future.result() for future in futures]
        finally:
            self.inflight_waves -= 1
            lanes = self.workers if self.workers else 1
            self.worker_seconds += lanes * (self.clock.monotonic() - wave_started)

    def _collect_guarded(
        self, index: int, alert: Alert, incident_id: str, queries: CoalescingScope
    ) -> CollectResult:
        """Parse + collect one alert against the live stage, contained per item."""
        started = self.clock.monotonic()
        try:
            incident = self.stage.parse_alert(alert, incident_id=incident_id)
            outcome = self.stage.collect(incident, queries)
        except Exception as exc:  # noqa: BLE001 - contained per item
            return CollectResult(
                index=index,
                alert=alert,
                error=exc,
                seconds=self.clock.monotonic() - started,
            )
        return CollectResult(
            index=index,
            alert=alert,
            incident=incident,
            outcome=outcome,
            seconds=self.clock.monotonic() - started,
        )

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="rcacopilot-collect",
            )
        return self._executor

    # ------------------------------------------------------------------- stats
    def stats_dict(self) -> Dict[str, float]:
        """The pool's gauges as a flat metric mapping.

        Read without a lock (each value is a single attribute read): a
        reader racing a wave may see one gauge a step ahead of another,
        exactly like the ingestor's autoscale gauges.  Used by the tenant
        router's service rollup, where the shared pool is the
        ``CollectService`` every tenant's collection fans into.
        """
        return {
            "pool_size": float(self.pool_size),
            "inflight_waves": float(self.inflight_waves),
            "resize_events": float(self.resize_events),
            "worker_seconds_total": float(self.worker_seconds),
        }

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Shut the executor down; a later :meth:`run` lazily recreates it.

        Also joins every executor retired by earlier :meth:`resize` calls —
        their workers were told to exit when they were retired, so this is
        normally instant, but it makes "no threads survive a stopped
        ingestor" a guarantee rather than a likelihood.

        Idempotent and exception safe: the executor is detached before any
        teardown call and the retired executors are joined in ``finally``,
        so a shutdown that raises still joins them, and a repeated
        ``close()`` is a no-op.
        """
        executor, self._executor = self._executor, None
        try:
            if executor is not None:
                executor.shutdown(wait=True)
        finally:
            self._prune_retired()

    def _prune_retired(self) -> None:
        """Join and drop executors retired by :meth:`resize`.

        Pops before joining so an executor whose shutdown raises is still
        dropped — the next close() retries only the survivors.
        """
        while self._retired:
            self._retired.pop().shutdown(wait=True)

    def __enter__(self) -> "CollectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
