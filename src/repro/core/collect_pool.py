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
from typing import List, Optional, Sequence

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
        #: Σ pool_size × wave wall time: the capacity paid for, whether or
        #: not it was used (the ``collect_worker_seconds_total`` gauge).
        self.worker_seconds = 0.0

    @property
    def pool_size(self) -> int:
        """Workers in the pool (0 = serial mode)."""
        return 0 if self.workers is None else self.workers

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
        wave_started = self.clock.monotonic()
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

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Shut the executor down; a later :meth:`run` lazily recreates it.

        Idempotent: the executor is detached before the shutdown call, so a
        repeated ``close()`` is a no-op.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "CollectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
