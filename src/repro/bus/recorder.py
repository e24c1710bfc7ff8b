"""Capture a live alert/feedback stream to a replayable recording.

:class:`TrafficRecorder` is a transparent proxy around a
:class:`~repro.core.streaming.StreamIngestor`: every ``submit``,
``submit_many`` and ``record_feedback`` call is forwarded unchanged *and*
captured with its offset on the ingestor's own clock — the clock its phase
timings (and a test's virtual-I/O handlers) read, so recorded offsets and
the live run's timings share one timeline.  Everything else (``flush``, ``stats``,
``start``/``stop``, context-manager use) passes straight through, so a
recorder drops into any call site that held the ingestor.

What is recorded is *accepted traffic*: a ``submit_many`` that overruns the
queue (:class:`~repro.core.errors.IngestQueueFull`) records exactly the
enqueued prefix carried on the exception, so a one-alert ``submit`` that
sheds load records nothing — the recording replays the stream the pipeline
actually saw, not the offered load.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from ..core.errors import IngestQueueFull
from ..core.streaming import StreamIngestor
from ..incidents import Incident
from ..monitors import Alert
from .jsonl import AlertEvent, BusEvent, FeedbackEvent, Recording, build_recording


class TrafficRecorder:
    """Tap a :class:`StreamIngestor`, producing a :class:`Recording`.

    The first captured event pins offset ``0.0``; all later offsets are
    seconds since then on the ingestor's injected clock.  Thread-safe the
    same way the ingestor is: concurrent producers may submit through the
    recorder, and the capture order of same-instant events is the order
    their submits serialized in.
    """

    def __init__(
        self,
        ingestor: StreamIngestor,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self._ingestor = ingestor
        self._clock = ingestor.clock
        self._lock = threading.Lock()
        self._events: List[BusEvent] = []
        self._epoch: Optional[float] = None
        self.meta: Dict[str, object] = dict(meta or {})

    # ----------------------------------------------------------------- capture
    def _offset_locked(self) -> float:
        now = self._clock.monotonic()
        if self._epoch is None:
            self._epoch = now
        return now - self._epoch

    # ------------------------------------------------------------------ tapped
    def submit(self, alert: Alert):
        """Forward one alert: a burst of one through :meth:`submit_many`."""
        return self.submit_many([alert])[0]

    def submit_many(self, alerts: Sequence[Alert]):
        """Forward a burst; on load-shed capture only the enqueued prefix."""
        alerts = list(alerts)
        try:
            futures = self._ingestor.submit_many(alerts)
        except IngestQueueFull as exc:
            accepted = alerts[: len(exc.enqueued)]
            if accepted:
                with self._lock:
                    offset = self._offset_locked()
                    self._events.extend(AlertEvent(offset, alert) for alert in accepted)
            raise
        with self._lock:
            offset = self._offset_locked()
            self._events.extend(AlertEvent(offset, alert) for alert in alerts)
        return futures

    def record_feedback(self, incident: Incident, confirmed_category: str) -> None:
        """Forward OCE feedback and capture it with its offset."""
        self._ingestor.record_feedback(incident, confirmed_category)
        with self._lock:
            self._events.append(
                FeedbackEvent(self._offset_locked(), incident, confirmed_category)
            )

    # ------------------------------------------------------------- passthrough
    def __getattr__(self, name: str):
        # Everything not tapped (flush, stats, start, stop, queue_depth, ...)
        # behaves exactly as on the bare ingestor.
        return getattr(self._ingestor, name)

    def __enter__(self) -> "TrafficRecorder":
        self._ingestor.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._ingestor.stop()

    # ------------------------------------------------------------------ output
    @property
    def events(self) -> List[BusEvent]:
        """A snapshot of the captured events so far, in capture order."""
        with self._lock:
            return list(self._events)

    def recording(self, meta: Optional[Dict[str, object]] = None) -> Recording:
        """The captured traffic as a :class:`Recording` (meta merged over
        the constructor's)."""
        merged = dict(self.meta)
        merged.update(meta or {})
        return build_recording(self.events, meta=merged)

    def save(self, path: str, meta: Optional[Dict[str, object]] = None) -> Recording:
        """Write the captured traffic as JSONL; returns the recording."""
        recording = self.recording(meta=meta)
        recording.save(path)
        return recording
