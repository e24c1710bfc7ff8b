"""Concurrent collection worker pool for the streaming ingestion front.

The paper's pipeline splits incident *collection* (handler action graphs:
log pulls, probe queries, correlation lookups) from *prediction* (embed +
retrieve + LLM).  Collection is per-incident and latency-bound — one slow
probe stalls nothing but its own incident — while prediction is throughput-
bound and wants the whole micro-batch at once.  :class:`CollectionPool`
exploits that split: each wave's ``parse_alert`` + ``collect`` calls fan out
to a worker pool, and the outcomes are folded back **in submission order** so
the batched prediction phase (and therefore reports, feedback routing, and
ingest counters) is identical to the serial path.  :meth:`CollectionPool.run`
is the one collection step: the stream ingestor's waves and
``RCACopilot.diagnose_many`` batches both run through it.

Two execution modes share one result contract, both inside the ingesting
process:

* ``workers=None`` — serial: the exact pre-pool behaviour, run inline in the
  flushing thread.  The parity baseline.
* ``workers=N`` — a :class:`~concurrent.futures.ThreadPoolExecutor` of N
  threads.  Handler queries are read-only over the shared telemetry hub and
  sleep/IO-bound work overlaps even under the GIL.

Every item of one wave shares one :class:`~repro.handlers.CoalescingScope`,
in either mode: alerts of one storm ask the hub the same questions (same
source, window and machine), and a built-in query (``error_logs``,
``metrics``, ``events``, ``traces``) an earlier item of the wave already ran
is answered from its result while no store it read has been written since.
Scripts, probes and ``classify`` callbacks still run per item, so every
outcome equals collecting the items one at a time.

Failures are contained per item: a handler raising (strict mode,
wall-budget overrun) marks only that item's :class:`CollectResult` as
failed — the rest of the wave still collects and the pool survives for the
next wave.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..handlers import CoalescingScope
from ..incidents import Incident
from ..monitors import Alert
from .collection import CollectionOutcome, CollectionStage


@dataclass
class CollectResult:
    """Outcome of one item's parse+collect, tagged with its submission slot.

    Exactly one of (``incident`` and ``outcome``) or ``error`` is set.
    """

    index: int
    incident: Optional[Incident] = None
    outcome: Optional[CollectionOutcome] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """True when collection produced an outcome for this item."""
        return self.error is None


class CollectionPool:
    """Fans a wave's parse+collect calls out to a thread pool.

    One pool is owned by one :class:`~repro.core.streaming.StreamIngestor`
    and reused across micro-batches; executors are created lazily on the
    first pooled wave and torn down by :meth:`close`.
    """

    def __init__(self, stage: CollectionStage, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive (or None for serial)")
        self.stage = stage
        self.workers = workers
        self._executor: Optional[ThreadPoolExecutor] = None

    # -------------------------------------------------------------------- run
    def run(self, items: Sequence[Union[Alert, Incident]]) -> List[CollectResult]:
        """Parse + collect every item; results come back in submission order.

        An alert reserves the next incident id here, in submission order, so
        id assignment is independent of worker interleaving, and is parsed
        inside its task; an incident is collected as it is and reserves no
        id.  Per-item failures are captured in the results, never raised.
        The wave's items share one query scope, dropped when the wave ends.
        """
        stage = self.stage
        tasks = [
            (index, item, None if isinstance(item, Incident) else stage.next_incident_id())
            for index, item in enumerate(items)
        ]
        queries = CoalescingScope()
        if self.workers is None:
            return [self._collect_guarded(*task, queries) for task in tasks]
        executor = self._ensure_executor()
        futures = [
            executor.submit(self._collect_guarded, *task, queries) for task in tasks
        ]
        return [future.result() for future in futures]

    def _collect_guarded(
        self,
        index: int,
        item: Union[Alert, Incident],
        incident_id: Optional[str],
        queries: CoalescingScope,
    ) -> CollectResult:
        """Parse (an alert) and collect one item, contained per item."""
        try:
            incident = item
            if incident_id is not None:
                incident = self.stage.parse_alert(item, incident_id=incident_id)
            outcome = self.stage.collect(incident, queries)
        except Exception as exc:  # noqa: BLE001 - contained per item
            return CollectResult(index=index, error=exc)
        return CollectResult(index=index, incident=incident, outcome=outcome)

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
