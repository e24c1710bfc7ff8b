"""Time-sorted columns: the one shape the log, metric and trace stores share.

Each store keeps its data (and every secondary index) as ascending
timestamps beside whatever was recorded at them, kept sorted on write and
read with :mod:`bisect`, so a windowed query costs O(log n + k in window)
however large the store has grown.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


def window_bounds(
    times: Sequence[float], start: Optional[float], end: Optional[float]
) -> Tuple[int, int]:
    """Index range of ascending ``times`` inside the inclusive ``[start, end]``.

    ``None`` leaves that side open; an inverted window gives ``hi <= lo``.
    """
    lo = 0 if start is None else bisect_left(times, start)
    hi = len(times) if end is None else bisect_right(times, end)
    return lo, hi


class TimeColumn(Generic[T]):
    """Ascending ``times`` and, in parallel, the ``items`` recorded at them.

    ``add`` appends when the timestamp is not older than the newest one (the
    usual case, O(1)) and otherwise inserts behind any equal timestamps (a
    bisect plus one memmove), so equal-timestamp items stay in insertion
    order.  Not synchronised: the owning store touches it under its lock.
    """

    __slots__ = ("times", "items")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.items: List[T] = []

    def add(self, time: float, item: T) -> None:
        if not self.times or time >= self.times[-1]:
            self.times.append(time)
            self.items.append(item)
            return
        index = bisect_right(self.times, time)
        self.times.insert(index, time)
        self.items.insert(index, item)

    def remove(self, time: float, item: T) -> None:
        """Remove the ``item`` that was added at ``time``."""
        index = self.items.index(item, bisect_left(self.times, time))
        del self.times[index], self.items[index]

    def window(self, start: Optional[float] = None, end: Optional[float] = None) -> List[T]:
        """A copy of the items inside the inclusive ``[start, end]``, in time order."""
        lo, hi = window_bounds(self.times, start, end)
        return self.items[lo:hi]
