"""Injectable time source for the streaming front and its control loops.

Everything timing-dependent in the ingestion path — the worker's wait for
an alert and its stop poll, collection-phase wall times, and the pool
autoscaler's cooldown window — reads time through a :class:`Clock` instead
of calling :mod:`time` directly.  Production uses :class:`MonotonicClock`
(real ``time.monotonic``/``time.sleep``); tests inject a step-controlled
fake (``tests/core/streamtest_utils.FakeClock``) so every flush, cooldown,
and utilization-window path runs deterministically, without real sleeps or
wall-clock races.

The interface is deliberately small:

* :meth:`Clock.monotonic` — the timeline every deadline and duration is
  computed on;
* :meth:`Clock.sleep` — how a thread waits for that timeline to progress;
* :meth:`Clock.time` — wall-clock timestamps for telemetry export;
* :meth:`Clock.wait_queue` — a ``queue.Queue.get`` bounded by *clock* time
  rather than real time.  The real clock delegates to the queue's own
  blocking get (so an arriving item still wakes the worker immediately); a
  fake clock parks the caller until virtual time advances past the timeout;
* :meth:`Clock.wake` — interrupt currently parked sleepers (``stop()``
  re-issues it on a join loop so a worker parked on a fake clock observes
  the stop signal; a wake with nobody parked is a no-op and leaves no
  state behind).  Always a no-op for the real clock, whose waits are
  bounded by real timeouts.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any


class Clock:
    """Time-source interface; the default implementation is the real clock."""

    def monotonic(self) -> float:
        """Monotonic seconds; the basis of all deadlines and durations."""
        raise NotImplementedError

    def time(self) -> float:
        """Wall-clock seconds since the epoch, for telemetry timestamps."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block the calling thread until ``seconds`` of clock time pass."""
        raise NotImplementedError

    def wait_queue(self, source: "queue.Queue", timeout: float) -> Any:
        """Take one item from ``source``, waiting at most ``timeout`` clock
        seconds; raises :class:`queue.Empty` when the wait expires."""
        raise NotImplementedError

    def wake(self) -> None:
        """Interrupt threads currently parked in :meth:`sleep`/:meth:`wait_queue`.

        Real-clock waits are bounded by real timeouts, so the default is a
        no-op; fake clocks override it so ``stop()`` can unpark a worker
        whose virtual wait would otherwise never elapse.  A wake with no
        parked sleeper does nothing — callers that must close the
        signal-then-park race re-issue the wake (as ``stop()`` does on its
        join loop) rather than rely on the clock remembering it.
        """


class MonotonicClock(Clock):
    """The real clock: ``time.monotonic``/``time.time``/``time.sleep``."""

    def monotonic(self) -> float:
        return time.monotonic()

    def time(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def wait_queue(self, source: "queue.Queue", timeout: float) -> Any:
        return source.get(timeout=timeout)


class VirtualClock(Clock):
    """Step-controlled deterministic clock; time only moves when told to.

    This is the clock behind faster-than-real-time replay
    (:class:`repro.bus.BusReplayer`) and the streaming concurrency suites
    (``tests/core/streamtest_utils.FakeClock`` is a thin alias):

    * :meth:`advance` moves virtual time forward and wakes any thread
      parked in :meth:`sleep`/:meth:`wait_queue` whose deadline has passed;
    * :meth:`sleep` called from a worker thread parks that thread until a
      controller advances past its deadline (or :meth:`wake`\\ s it); with
      ``auto_advance=True`` it instead advances the clock itself and
      returns immediately — virtual time "jumps over" every wait, which
      suits single-threaded control loops and replay drivers;
    * :meth:`wait_queue` first tries a non-blocking get, then sleeps out
      the (virtual) timeout and tries once more — the wait only expires
      when virtual time is advanced past it (or :meth:`wake` cuts it short);
    * :meth:`wake` unparks all *currently parked* sleepers and is
      otherwise a no-op — it leaves no residue for later sleeps
      (``stop()`` re-issues it on a join loop, so a wake landing while a
      worker is between parks is simply retried);
    * :meth:`wait_for_sleepers` lets a controller synchronize with
      background workers without real sleeps: it blocks (bounded by a
      *real*-time safety deadline, purely as a hang guard) until the given
      number of threads are parked on this clock.

    There is a single timeline: ``time()`` returns ``monotonic()``, so
    telemetry timestamps recorded under a virtual clock are exactly the
    virtual instants at which they were emitted — the property the
    record/replay determinism guarantees rest on.
    """

    def __init__(self, start: float = 0.0, auto_advance: bool = False) -> None:
        self._now = start
        self._auto_advance = auto_advance
        self._cond = threading.Condition()
        self._generation = 0
        self._sleepers = 0

    def monotonic(self) -> float:
        with self._cond:
            return self._now

    def time(self) -> float:
        # One timeline: virtual wall clock == virtual monotonic clock.
        return self.monotonic()

    def advance(self, seconds: float) -> None:
        """Move virtual time forward and wake sleepers whose deadline passed."""
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        with self._cond:
            self._now += seconds
            self._cond.notify_all()

    def sleep(self, seconds: float) -> None:
        with self._cond:
            if self._auto_advance:
                self._now += max(seconds, 0.0)
                self._cond.notify_all()
                return
            deadline = self._now + seconds
            generation = self._generation
            self._sleepers += 1
            self._cond.notify_all()  # wait_for_sleepers watches this count
            try:
                while self._now < deadline and self._generation == generation:
                    self._cond.wait()
            finally:
                self._sleepers -= 1
                self._cond.notify_all()

    def wake(self) -> None:
        with self._cond:
            if self._sleepers:
                self._generation += 1
                self._cond.notify_all()

    def wait_queue(self, source: "queue.Queue", timeout: float) -> Any:
        try:
            return source.get_nowait()
        except queue.Empty:
            pass
        self.sleep(timeout)
        return source.get_nowait()  # raises Empty when the wait expired

    def wait_for_sleepers(self, count: int = 1, real_timeout: float = 10.0) -> None:
        """Block (real-time bounded, event-driven) until ``count`` threads park."""
        deadline = time.monotonic() + real_timeout
        with self._cond:
            while self._sleepers < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    raise TimeoutError(
                        f"only {self._sleepers} of {count} expected sleepers "
                        f"parked within {real_timeout}s"
                    )


#: Shared default instance (the clock is stateless).
MONOTONIC_CLOCK = MonotonicClock()
