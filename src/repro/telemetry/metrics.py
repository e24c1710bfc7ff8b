"""Time-series metrics substrate.

Metrics "monitor service status or user-perceived metrics, forming time
series data" (paper Section 2.2).  The store keeps one series per
(metric name, machine) pair and supports the window aggregations that
monitors and handler query actions need: latest value, mean, max, min,
rate of change, and the top machines of a metric.

Layout: a series is two parallel, time-sorted columns (timestamps, values);
the store keys its series by (name, machine) and also lists them per metric
name (ordered by machine) and per machine (ordered by name).  Write: an
in-order sample is two appends, an out-of-order one a bisect and two list
inserts; only the first sample of a new series touches the store's indices.
Read: a windowed aggregate bisects a series to the window and works on that
slice of the value column — O(log n + k), and no :class:`MetricPoint` is
built unless the caller asked for points; a per-metric or per-machine query
walks that metric's or machine's own list of series, not the whole map.

Thread safety: the streaming deployment writes into one shared store from
several threads at once — the ingest worker's per-batch export, the
prediction lane's cache/index exports, and collect-pool worker threads
whose handlers emit telemetry — while other handlers concurrently *read*
the same series.  The store therefore guards its series dictionary with a
lock, and every series guards its sample arrays with its own lock: a
``record`` can neither lose a concurrently created series (the classic
get-then-set race) nor interleave a mid-``insert`` list with a reader's
window scan.  Aggregations see each series at a point in time; they do not
freeze the whole store.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .timeindex import window_bounds


@dataclass(frozen=True)
class MetricPoint:
    """A single sample of a metric series."""

    timestamp: float
    value: float


class MetricSeries:
    """A single time-ordered series of :class:`MetricPoint` samples."""

    def __init__(self, name: str, machine: str, unit: str = "") -> None:
        self.name = name
        self.machine = machine
        self.unit = unit
        #: Guards the parallel sample arrays: concurrent writers (ingest
        #: worker, prediction lane, collect workers) mutate them with
        #: appends *and* mid-list inserts, so unguarded readers could scan
        #: a half-shifted list.
        self._lock = threading.Lock()
        self._timestamps: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._timestamps)

    def __getstate__(self) -> Dict[str, object]:
        """Copy/pickle support: snapshot the samples, drop the lock.

        Locks are neither picklable nor deep-copyable, and tests deep-copy
        whole pipelines (hub included), so the series serializes a
        consistent snapshot and rebuilds a fresh lock on the other side.
        """
        with self._lock:
            return {
                "name": self.name,
                "machine": self.machine,
                "unit": self.unit,
                "_timestamps": list(self._timestamps),
                "_values": list(self._values),
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def add(self, timestamp: float, value: float) -> None:
        """Append a sample; out-of-order samples are inserted in place."""
        with self._lock:
            if not self._timestamps or timestamp >= self._timestamps[-1]:
                self._timestamps.append(timestamp)
                self._values.append(value)
                return
            index = bisect.bisect_left(self._timestamps, timestamp)
            self._timestamps.insert(index, timestamp)
            self._values.insert(index, value)

    def _window(
        self, start: Optional[float], end: Optional[float]
    ) -> Tuple[List[float], List[float]]:
        """Copies of the (timestamps, values) inside the inclusive window."""
        with self._lock:
            lo, hi = window_bounds(self._timestamps, start, end)
            return self._timestamps[lo:hi], self._values[lo:hi]

    def points(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[MetricPoint]:
        """Return samples inside the inclusive window [start, end]."""
        return [MetricPoint(t, v) for t, v in zip(*self._window(start, end))]

    def values(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[float]:
        """Return the raw values inside the window."""
        with self._lock:
            lo, hi = window_bounds(self._timestamps, start, end)
            return self._values[lo:hi]

    def latest(self) -> Optional[MetricPoint]:
        """Return the most recent sample, or None for an empty series."""
        with self._lock:
            if not self._timestamps:
                return None
            return MetricPoint(self._timestamps[-1], self._values[-1])

    def mean(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Mean value over the window (0.0 for an empty window).

        The result is clamped into ``[minimum, maximum]``: floating-point
        rounding of the sum/division can otherwise push the mean one ulp
        outside the range of the observed values.
        """
        values = self.values(start, end)
        if not values:
            return 0.0
        mean = math.fsum(values) / len(values)
        return min(max(mean, min(values)), max(values))

    def maximum(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Maximum value over the window (0.0 for an empty window)."""
        values = self.values(start, end)
        return max(values) if values else 0.0

    def minimum(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Minimum value over the window (0.0 for an empty window)."""
        values = self.values(start, end)
        return min(values) if values else 0.0

    def rate(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Average rate of change (units per second) over the window."""
        timestamps, values = self._window(start, end)
        if len(values) < 2:
            return 0.0
        dt = timestamps[-1] - timestamps[0]
        if dt <= 0:
            return 0.0
        return (values[-1] - values[0]) / dt

class MetricStore:
    """A collection of metric series keyed by (metric name, machine)."""

    def __init__(self) -> None:
        #: Guards the series dictionary: two threads recording the first
        #: sample of the same (name, machine) pair must not each create a
        #: series and have one swallow the other's sample.
        self._lock = threading.Lock()
        #: Samples recorded through :meth:`record`, bumped under the lock
        #: once the sample is in its series: a result read while this
        #: showed ``n`` still holds while it shows ``n``.
        self.writes = 0
        self._series: Dict[Tuple[str, str], MetricSeries] = {}
        #: Derived from ``_series``: each metric's series ordered by machine,
        #: each machine's ordered by metric name.
        self._by_name: Dict[str, List[MetricSeries]] = {}
        self._by_machine: Dict[str, List[MetricSeries]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __getstate__(self) -> Dict[str, object]:
        """Copy/pickle support: snapshot the series map, drop the lock and indices."""
        with self._lock:
            return {"_series": dict(self._series)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__()
        self._series = state["_series"]
        for series in self._series.values():
            self._index(series)

    def _index(self, series: MetricSeries) -> None:
        by_name = self._by_name.setdefault(series.name, [])
        bisect.insort(by_name, series, key=attrgetter("machine"))
        by_machine = self._by_machine.setdefault(series.machine, [])
        bisect.insort(by_machine, series, key=attrgetter("name"))

    def record(
        self, name: str, machine: str, timestamp: float, value: float, unit: str = ""
    ) -> None:
        """Record a sample, creating the series if needed."""
        key = (name, machine)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = MetricSeries(name, machine, unit=unit)
                self._index(series)
            series.add(timestamp, value)
            self.writes += 1

    def series(self, name: str, machine: str) -> Optional[MetricSeries]:
        """Return the series for (name, machine), or None if absent."""
        with self._lock:
            return self._series.get((name, machine))

    def series_for_metric(self, name: str) -> List[MetricSeries]:
        """Return every machine's series for a metric name."""
        with self._lock:
            return list(self._by_name.get(name, ()))

    def metric_names(self) -> List[str]:
        """Distinct metric names present in the store."""
        with self._lock:
            return sorted(self._by_name)

    def machines(self) -> List[str]:
        """Distinct machines present in the store."""
        with self._lock:
            return sorted(self._by_machine)

    def latest(self, name: str, machine: str) -> Optional[float]:
        """Latest value of a metric on a machine, or None."""
        series = self.series(name, machine)
        if series is None:
            return None
        point = series.latest()
        return None if point is None else point.value

    def aggregate(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        how: str = "mean",
    ) -> Dict[str, float]:
        """Aggregate a metric across machines over a window.

        Args:
            name: Metric name.
            start: Window start.
            end: Window end.
            how: One of ``mean``, ``max``, ``min``, ``latest``.

        Returns:
            Mapping from machine to the aggregated value.
        """
        if how not in ("mean", "max", "min", "latest"):
            raise ValueError(f"unknown aggregation: {how!r}")
        result: Dict[str, float] = {}
        for series in self.series_for_metric(name):
            if how == "mean":
                result[series.machine] = series.mean(start, end)
            elif how == "max":
                result[series.machine] = series.maximum(start, end)
            elif how == "min":
                result[series.machine] = series.minimum(start, end)
            else:
                point = series.latest()
                result[series.machine] = 0.0 if point is None else point.value
        return result

    def top_machines(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        top: int = 5,
        how: str = "max",
    ) -> List[Tuple[str, float]]:
        """Return the machines with the highest aggregated value for a metric."""
        aggregated = self.aggregate(name, start=start, end=end, how=how)
        ranked = sorted(aggregated.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]

def summarize_series(series: MetricSeries, window: Optional[Tuple[float, float]] = None) -> str:
    """Render a one-line textual summary of a series for diagnostic reports."""
    start, end = window if window else (None, None)
    count = len(series.points(start, end))
    return (
        f"{series.name}@{series.machine}: n={count} "
        f"mean={series.mean(start, end):.2f} max={series.maximum(start, end):.2f} "
        f"latest={series.latest().value if series.latest() else 0.0:.2f}"
        f"{' ' + series.unit if series.unit else ''}"
    )
