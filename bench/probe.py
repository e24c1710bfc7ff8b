"""A speed probe: how fast is this box right now?

The sandbox this benchmark runs in is a small shared VM whose speed swings by
up to 1.7x for minutes at a time (other tenants of the host), which no
estimator inside a ten-second window can average away: the same code on the
same inputs has read 74 and 126 alerts/s a few minutes apart.  So every
time-valued end-to-end metric is reported *at reference speed*: a fixed
kernel of ordinary interpreter work (arithmetic, small- and large-dict
lookups, string splitting, sorting) is timed before and after every round
of a workload, and the round's times are scaled by

    speed = REFERENCE_SECONDS / kernel seconds        (1.0: an undisturbed box)

The kernel lives here, outside ``src/``, so a change to the program cannot
move it.  Over the same-seed repeats the README reports, scaling cut the
max/min of ``items_per_s`` from 1.4-1.65 to 1.15-1.25 on every workload.
The raw, unscaled rate and the speed itself are per-layer metrics
(``bench.raw_items_per_s``, ``bench.box_speed``).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

#: About the kernel's time between the rounds of a workload (caches cold) on
#: the builder's box while nothing disturbs it.
#: It only fixes the scale: a box-speed of 1.0 reads as "that box, undisturbed".
REFERENCE_SECONDS = 0.0045

_LOOKUP: Dict[int, str] = {}
_KEYS: List[int] = []
_LINE = "error timeout connection refused on host frontend-%d queue depth %d exceeded"


def kernel() -> float:
    """Run the fixed kernel once; returns its wall seconds (about 3 ms)."""
    if not _LOOKUP:
        _LOOKUP.update((number, str(number)) for number in range(100_000))
        chooser = random.Random(0)
        _KEYS.extend(chooser.randrange(100_000) for _ in range(4_000))
    started = time.perf_counter()
    slots: Dict[int, int] = {}
    total = 0
    for number in range(20_000):
        slots[number & 255] = total
        total += number * number
    lookup = _LOOKUP
    for key in _KEYS:
        total += len(lookup[key])
    rows = []
    for number in range(600):
        words = (_LINE % (number, number * 3)).split()
        rows.append({"count": len(words), "text": " ".join(sorted(words)), "number": number})
    rows.sort(key=lambda row: row["text"])
    return time.perf_counter() - started


def at_reference_speed(latency_ms: float, speed: float, timer_ms: float = 0.0) -> float:
    """What a latency timed at box speed ``speed`` would read at speed 1.0.

    ``timer_ms`` is the part of it that a timer in the program sets rather
    than the processor (the open loop's flush window): that part does not
    stretch when the box slows, so only what exceeds it is scaled.
    """
    return min(latency_ms, timer_ms) + max(latency_ms - timer_ms, 0.0) * speed


class SpeedProbe:
    """Samples the box's speed between the rounds of a workload."""

    #: Kernel runs per sample; their mean is the sample.
    RUNS = 2

    def __init__(self) -> None:
        kernel()  # build the lookup table outside any timed region
        self._previous: Optional[float] = None
        #: Seconds spent inside the kernel, for CPU accounting.
        self.busy_seconds = 0.0

    def sample(self) -> float:
        """Time the kernel now; returns the speed (1.0 = reference)."""
        seconds = sum(kernel() for _ in range(self.RUNS)) / self.RUNS
        self.busy_seconds += seconds * self.RUNS
        self._previous = REFERENCE_SECONDS / seconds
        return self._previous

    def lap(self) -> float:
        """Sample now; returns the mean of this and the previous sample.

        Called after a round whose start was marked by the previous
        ``sample``/``lap``: the speed the box ran that round at.
        """
        previous = self._previous
        speed = self.sample()
        return speed if previous is None else (previous + speed) / 2.0
