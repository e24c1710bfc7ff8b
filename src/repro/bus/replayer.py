"""Deterministic faster-than-real-time replay of a recorded alert stream.

:class:`BusReplayer` schedules a :class:`~repro.bus.jsonl.Recording` back
through a :class:`~repro.core.streaming.StreamIngestor` at any speed
multiplier.  The design invariant that makes replays **bit-identical at
every speed** is the separation of *batching* from *pacing*:

* **Batching decisions run on the recorded timeline.**  A batch goes when
  it reaches ``max_batch`` alerts ("size") or its oldest alert has waited
  ``max_latency_seconds`` ("latency"), both evaluated on the events'
  *recorded* offsets, never on scaled times.  Batch membership is
  therefore a pure function of (recording, ingest config), independent of
  the speed multiplier and of float rounding in the scaling (no comparison
  ever involves ``speed``).
* **Pacing only moves the clock.**  Event ``e`` is delivered once the
  replay clock reaches ``t0 + e.offset / speed``.  On a
  :class:`~repro.core.clock.VirtualClock` the replayer *advances* virtual
  time to the target (a 6-hour recording replays in milliseconds); on the
  real clock it sleeps the scaled gaps.  Feedback events are delivered at
  their recorded position relative to flushes, so feedback-vs-batch
  visibility is exactly the live run's.

The replayer drives the ingestor *manually* (no background worker) and
labels each flush with the reason the rule returned, so the resulting
:class:`~repro.core.streaming.IngestStats` — batch count, flush sizes,
flush reasons, queue-depth high-water mark — match themselves across
speeds.  They do **not** match a live worker on the same stream: that
worker is work-conserving (no timer; it takes what is queued the moment it
is free), so its cuts depend on service times a recording does not carry.
The size/latency window is the replay's own batching policy, kept so golden
digests stay byte-identical; whether replay should keep modelling a timer
no live code runs is an open ROADMAP question.

Pool-shape note: collection may still fan out to a thread pool during
replay; reports and counters are pool-shape-invariant by the
ingestor's own contract.  Time-based *control* loops (autoscaler
cooldowns) see the compressed timeline, so golden suites that compare
across speeds pin static pools or zero cooldowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.clock import Clock
from ..core.streaming import IngestStats, StreamIngestor
from .jsonl import AlertEvent, FeedbackEvent, Recording


@dataclass
class ReplayResult:
    """Everything one replay produced, in submission order."""

    #: Successful diagnosis reports, in alert submission order (alerts whose
    #: collection/prediction failed are in :attr:`failures` instead).
    reports: List[object] = field(default_factory=list)
    #: Alert position (0-based submission index) -> the exception that
    #: resolved its future.
    failures: Dict[int, BaseException] = field(default_factory=dict)
    #: Ingest counters snapshot taken after the final flush.
    stats: Optional[IngestStats] = None
    #: The speed multiplier the replay ran at.
    speed: float = 1.0
    #: Last event offset of the recording (recorded seconds).
    recorded_seconds: float = 0.0
    #: Clock time the replay spanned on the replaying clock (scaled).
    replay_seconds: float = 0.0
    #: Feedback events delivered.
    feedbacks: int = 0


class BusReplayer:
    """Replay a recording through a (manually driven) stream ingestor."""

    def __init__(self, recording: Recording, speed: float = 1.0) -> None:
        if speed <= 0.0:
            raise ValueError(f"speed multiplier must be positive, got {speed!r}")
        self.recording = recording
        self.speed = speed

    # ------------------------------------------------------------------ pacing
    @staticmethod
    def _pace(clock: Clock, target: float) -> None:
        """Bring the replay clock up to ``target`` (monotonic seconds).

        A clock that exposes ``advance`` (VirtualClock) is stepped directly
        — this is what makes replay faster than real time *exact* rather
        than sleep-bounded; the real clock sleeps out the remaining gap.
        Handlers may themselves have advanced a virtual clock past the
        target, in which case there is nothing to do (time never rewinds).
        """
        delta = target - clock.monotonic()
        if delta <= 0.0:
            return
        advance = getattr(clock, "advance", None)
        if advance is not None:
            advance(delta)
        else:
            clock.sleep(delta)

    # ------------------------------------------------------------------ replay
    def replay(
        self,
        ingestor: StreamIngestor,
        future_timeout: float = 120.0,
    ) -> ReplayResult:
        """Drive the full recording through ``ingestor``; gather the results.

        The ingestor must not have a background worker running — the
        replayer takes every flush decision itself, on the recorded
        timeline (a running worker would race it for the queue and destroy
        determinism).
        """
        worker = getattr(ingestor, "_worker", None)
        if worker is not None and worker.is_alive():
            raise ValueError(
                "replay requires a manually driven ingestor; stop() the "
                "background worker first"
            )
        clock = ingestor.clock
        config = ingestor.config
        t0 = clock.monotonic()
        futures: List[object] = []
        feedbacks = 0
        pending = 0
        window_start = 0.0  # recorded offset of the oldest pending alert

        def flush_if_due(now: float) -> None:
            """Flush what is pending if it is due at recorded instant ``now``.

            A full batch goes where it filled; one whose oldest alert has
            waited ``max_latency_seconds`` goes at that deadline, and an
            event at or after it is in the next batch.  ``now >= start +
            bound``, never a difference (0.35 - 0.3 < 0.05): bit-stable cuts.
            """
            nonlocal pending
            deadline = window_start + config.max_latency_seconds
            if pending >= config.max_batch:
                reason, due = "size", now
            elif pending and now >= deadline:
                reason, due = "latency", deadline
            else:
                return
            self._pace(clock, t0 + due / self.speed)
            ingestor.flush(reason=reason)
            pending = 0

        for event in self.recording.events:
            flush_if_due(event.offset)
            self._pace(clock, t0 + event.offset / self.speed)
            if isinstance(event, AlertEvent):
                futures.append(ingestor.submit(event.alert))
                if pending == 0:
                    window_start = event.offset
                pending += 1
                flush_if_due(event.offset)
            elif isinstance(event, FeedbackEvent):
                ingestor.record_feedback(event.incident, event.category)
                feedbacks += 1
            else:  # pragma: no cover - decoder admits only the two kinds
                raise TypeError(f"unknown bus event: {event!r}")
        # Tail: time runs out on whatever is still pending.
        flush_if_due(float("inf"))

        result = ReplayResult(
            speed=self.speed,
            recorded_seconds=self.recording.duration_seconds,
            replay_seconds=clock.monotonic() - t0,
            feedbacks=feedbacks,
        )
        for position, future in enumerate(futures):
            try:
                result.reports.append(future.result(timeout=future_timeout))
            except Exception as exc:  # noqa: BLE001 - the failure is the datum
                result.failures[position] = exc
        result.stats = ingestor.stats()
        return result
