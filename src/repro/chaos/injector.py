"""Deterministic fault injection for the pipeline's dependency boundaries.

A :class:`FaultInjector` holds a set of :class:`FaultConfig` entries, each
bound to a named *site* — the boundary it perturbs (``handler.step``,
``llm.complete``, ``index.load``, ``collect.worker``, ...).  Code under
test calls :meth:`FaultInjector.fire` (or the finer-grained
:meth:`FaultInjector.sample`) at the boundary; the injector decides, per
call, whether a fault fires, applies its virtual latency through the
injected :class:`~repro.core.clock.Clock`, and raises its error class.

Determinism is the design center:

* every config draws from its **own** seeded RNG stream (derived from the
  injector seed, the site name, and the config's position), so adding a
  fault at one site never shifts the draw sequence at another;
* all latency goes through the clock — under a
  ``FakeClock(auto_advance=True)`` the whole chaos suite runs with zero
  real sleeps;
* activation windows (``start_seconds`` / ``duration_seconds``) are
  measured on the same clock, so "the LLM is down for 30 virtual seconds"
  is an exact, replayable statement.

Concurrency note: the injector is thread-safe (one lock guards RNG draws
and counters), but when multiple pool workers race to fire the same site
the *assignment* of draws to calls follows scheduling order.  Tests that
need exact per-call determinism use ``probability=1.0``, a ``match``
predicate on the call detail, or ``max_injections`` budgets.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.clock import MONOTONIC_CLOCK, Clock
from ..core.errors import InjectedFault

#: An error spec: an exception instance factory, an exception class, or None.
ErrorSpec = Union[Callable[[str], BaseException], type, None]


@dataclass(frozen=True)
class FaultConfig:
    """One fault: where it fires, how often, and what it does.

    ``error=None`` makes a pure latency fault (delay only); ``corrupt=True``
    asks the boundary adapter to garble the operation's *result* instead of
    (or in addition to) delaying — adapters that have nothing to corrupt
    ignore the flag.
    """

    site: str
    #: Per-call injection probability in [0, 1].
    probability: float = 1.0
    #: Virtual latency applied through the clock when the fault fires.
    delay_seconds: float = 0.0
    #: Exception class or ``detail -> exception`` factory; None = no error.
    error: ErrorSpec = InjectedFault
    #: Ask the adapter to corrupt the call's result instead of raising.
    corrupt: bool = False
    #: Activation window start, on the injector clock's monotonic scale.
    start_seconds: float = 0.0
    #: Window length; None = active forever once started.
    duration_seconds: Optional[float] = None
    #: Stop firing after this many injections; None = unbounded.
    max_injections: Optional[int] = None
    #: Only fire for calls whose detail string satisfies this predicate.
    match: Optional[Callable[[str], bool]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_seconds < 0.0:
            raise ValueError("delay_seconds must be non-negative")
        if self.duration_seconds is not None and self.duration_seconds < 0.0:
            raise ValueError("duration_seconds must be non-negative (or None)")
        if self.max_injections is not None and self.max_injections < 1:
            raise ValueError("max_injections must be positive (or None)")

    def make_error(self, detail: str) -> Optional[BaseException]:
        """Instantiate this fault's error for one call (None if delay-only)."""
        if self.error is None:
            return None
        if isinstance(self.error, type):
            message = f"injected fault at {self.site}"
            if detail:
                message = f"{message} ({detail})"
            return self.error(message)
        return self.error(detail)


@dataclass
class FaultEvent:
    """What one :meth:`FaultInjector.sample` decided for one call."""

    site: str
    config: FaultConfig
    #: Error to raise at the boundary; None for delay/corrupt-only faults.
    error: Optional[BaseException] = None
    #: True when the adapter should corrupt the call's result.
    corrupt: bool = False
    #: Virtual latency already applied through the clock.
    delay_seconds: float = 0.0


class FaultInjector:
    """Seeded, clock-driven fault injection across named boundaries.

    One injector is shared by every boundary adapter of a pipeline under
    test; an injector with no configured faults is inert and adds one
    dictionary lookup per call.  ``epoch`` (the clock's monotonic reading
    at construction) anchors every config's activation window, so windows
    are relative to "when chaos began", not process start.
    """

    def __init__(
        self,
        seed: int = 0,
        clock: Optional[Clock] = None,
        faults: Optional[List[FaultConfig]] = None,
    ) -> None:
        self.seed = seed
        self.clock = clock or MONOTONIC_CLOCK
        self.epoch = self.clock.monotonic()
        self._lock = threading.Lock()
        self._faults: Dict[str, List[Tuple[FaultConfig, random.Random, List[int]]]] = {}
        self.injections_total = 0
        self.delay_seconds_total = 0.0
        self._site_counts: Dict[str, int] = {}
        for config in faults or []:
            self.add(config)

    # ------------------------------------------------------------ configuration
    def add(self, config: FaultConfig) -> "FaultInjector":
        """Register one fault; returns self for chaining."""
        entries = self._faults.setdefault(config.site, [])
        # A per-config RNG stream keyed by (seed, site, slot): deterministic
        # across runs and independent of every other config's draw sequence.
        rng = random.Random(f"{self.seed}:{config.site}:{len(entries)}")
        entries.append((config, rng, [0]))
        return self

    def extend(self, configs: List[FaultConfig]) -> "FaultInjector":
        """Register several faults; returns self for chaining."""
        for config in configs:
            self.add(config)
        return self

    def clear(self, site: Optional[str] = None) -> None:
        """Drop every fault (or only one site's); counters are kept."""
        if site is None:
            self._faults.clear()
        else:
            self._faults.pop(site, None)

    # ----------------------------------------------------------------- firing
    def sample(self, site: str, detail: str = "") -> Optional[FaultEvent]:
        """Decide whether a fault fires for one call at ``site``.

        Applies the winning config's virtual delay through the clock (so
        the caller observes the latency) and returns the event for the
        adapter to act on — raise ``event.error``, corrupt the result on
        ``event.corrupt`` — or None when nothing fires.  At most one
        config fires per call: the first registered active one whose
        probability draw succeeds.
        """
        entries = self._faults.get(site)
        if not entries:
            return None
        now = self.clock.monotonic() - self.epoch
        chosen: Optional[Tuple[FaultConfig, List[int]]] = None
        with self._lock:
            for config, rng, fired in entries:
                if now < config.start_seconds:
                    continue
                if (
                    config.duration_seconds is not None
                    and now >= config.start_seconds + config.duration_seconds
                ):
                    continue
                if (
                    config.max_injections is not None
                    and fired[0] >= config.max_injections
                ):
                    continue
                if config.match is not None and not config.match(detail):
                    continue
                if config.probability < 1.0 and rng.random() >= config.probability:
                    continue
                fired[0] += 1
                self.injections_total += 1
                self.delay_seconds_total += config.delay_seconds
                self._site_counts[site] = self._site_counts.get(site, 0) + 1
                chosen = (config, fired)
                break
        if chosen is None:
            return None
        config = chosen[0]
        if config.delay_seconds > 0.0:
            self.clock.sleep(config.delay_seconds)
        return FaultEvent(
            site=site,
            config=config,
            error=config.make_error(detail),
            corrupt=config.corrupt,
            delay_seconds=config.delay_seconds,
        )

    def fire(self, site: str, detail: str = "") -> Optional[FaultEvent]:
        """Fire ``site`` and raise the injected error, if any.

        The one-line form for boundaries with nothing to corrupt: apply
        latency, raise the error, otherwise return the event (or None).
        """
        event = self.sample(site, detail=detail)
        if event is not None and event.error is not None:
            raise event.error
        return event

    # ------------------------------------------------------------------- stats
    def stats_dict(self) -> Dict[str, float]:
        """Injection counters as a flat metric mapping (suffix -> value)."""
        with self._lock:
            flat = {
                "injections_total": float(self.injections_total),
                "delay_seconds_total": float(self.delay_seconds_total),
            }
            for site, count in sorted(self._site_counts.items()):
                flat[f"injections_{site.replace('.', '_')}"] = float(count)
        return flat


#: A shared inert injector for call sites that want a non-None default.
NO_FAULTS = FaultInjector(seed=0)
