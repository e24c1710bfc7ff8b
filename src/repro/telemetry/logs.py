"""Log records and an indexed in-memory log store.

Logs are one of the three telemetry pillars the paper's collection stage
queries (semi-structured text recording hardware and software events,
Section 2.2).  The store supports the query shapes the incident handlers
need: filter by component / machine / level / time window, and full-text
substring search over messages.
"""

from __future__ import annotations

import re
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .timeindex import TimeColumn


class LogLevel(IntEnum):
    """Severity levels for log records (ordered)."""

    DEBUG = 10
    INFO = 20
    WARNING = 30
    ERROR = 40
    CRITICAL = 50

    @classmethod
    def parse(cls, value: "str | int | LogLevel") -> "LogLevel":
        """Parse a level from a name, an integer, or an existing level."""
        if isinstance(value, LogLevel):
            return value
        if isinstance(value, int):
            return cls(value)
        name = str(value).strip().upper()
        if name in cls.__members__:
            return cls[name]
        raise ValueError(f"unknown log level: {value!r}")


@dataclass(frozen=True)
class LogRecord:
    """A single semi-structured log line emitted by a service component.

    Attributes:
        timestamp: Seconds since the simulation epoch.
        level: Severity of the record.
        component: Logical component (e.g. ``Transport.Delivery``).
        machine: Machine identifier that emitted the record.
        message: Free-form message text.
        fields: Optional structured key/value payload.
    """

    timestamp: float
    level: LogLevel
    component: str
    machine: str
    message: str
    fields: Dict[str, str] = field(default_factory=dict)

    def matches(self, pattern: str) -> bool:
        """Return True if ``pattern`` (case-insensitive substring) occurs in the message."""
        return pattern.lower() in self.message.lower()

    def render(self) -> str:
        """Render the record as a single human-readable line."""
        extra = ""
        if self.fields:
            extra = " " + " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return (
            f"[{self.timestamp:10.1f}] {self.level.name:<8} "
            f"{self.machine} {self.component}: {self.message}{extra}"
        )


class LogStore:
    """A time-indexed, thread-safe store of :class:`LogRecord` objects.

    Layout: one :class:`TimeColumn` of every record plus one per machine and
    one per component (the postings), each holding the records themselves in
    timestamp order, equal timestamps in append order.  The ERROR+ records
    have a column of their own and, at the same positions, a column of their
    message signatures (:func:`normalize_message`, run once per record).

    Write: ``append`` adds the record to its columns — O(1) when it is not
    older than the newest record, a bisect and a list insert when it arrives
    out of order.  Read: ``query`` bisects the narrowest column the scope
    names (machine, else component, else the error column when only ERROR+ is
    wanted, else all) to the window and filters only the k records inside
    it: O(log n + k), scoped or not.  ``error_signatures`` bisects the
    signature column and counts the k_err signatures inside the window:
    O(log n + k_err), no message is read.

    Writers and readers hold the store's lock while they touch the columns,
    so a query sees the store at one point in time; filtering runs on the
    query's own copy.  Copies and pickles carry the records and rebuild the
    columns and the lock.

    ``writes`` counts appends.  It is bumped under the lock once the record
    is in its columns, so a result read while it showed ``n`` still holds
    while it shows ``n``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.writes = 0
        self._all: TimeColumn[LogRecord] = TimeColumn()
        self._by_machine: Dict[str, TimeColumn[LogRecord]] = defaultdict(TimeColumn)
        self._by_component: Dict[str, TimeColumn[LogRecord]] = defaultdict(TimeColumn)
        self._errors: TimeColumn[LogRecord] = TimeColumn()
        self._error_signatures: TimeColumn[str] = TimeColumn()

    def __len__(self) -> int:
        return len(self._all.times)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.query())

    def __getstate__(self) -> Dict[str, object]:
        return {"records": self.query()}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__()
        self.extend(state["records"])

    def append(self, record: LogRecord) -> None:
        """Add a record to the time column and to its machine/component postings.

        An ERROR+ record also joins the error column, beside its signature.
        """
        is_error = record.level >= LogLevel.ERROR
        signature = normalize_message(record.message) if is_error else ""
        with self._lock:
            self._all.add(record.timestamp, record)
            self._by_machine[record.machine].add(record.timestamp, record)
            self._by_component[record.component].add(record.timestamp, record)
            if is_error:
                self._errors.add(record.timestamp, record)
                self._error_signatures.add(record.timestamp, signature)
            self.writes += 1

    def extend(self, records: Iterable[LogRecord]) -> None:
        """Append many records."""
        for record in records:
            self.append(record)

    def machines(self) -> List[str]:
        """Return the set of machines that have emitted at least one record."""
        with self._lock:
            return sorted(self._by_machine)

    def components(self) -> List[str]:
        """Return the set of components that have emitted at least one record."""
        with self._lock:
            return sorted(self._by_component)

    def query(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        machine: Optional[str] = None,
        component: Optional[str] = None,
        min_level: Optional[LogLevel] = None,
        pattern: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[LogRecord]:
        """Query records by time window, scope, severity, and message pattern.

        Args:
            start: Inclusive lower bound on timestamp.
            end: Inclusive upper bound on timestamp.
            machine: Restrict to a single machine.
            component: Restrict to a single component.
            min_level: Keep records at or above this level.
            pattern: Case-insensitive substring that must occur in the message.
            limit: Maximum number of records returned (most recent first kept).

        Returns:
            Matching records in timestamp order.
        """
        with self._lock:
            if machine is not None:
                column = self._by_machine.get(machine)
            elif component is not None:
                column = self._by_component.get(component)
            elif min_level is not None and min_level >= LogLevel.ERROR:
                column = self._errors
            else:
                column = self._all
            records = column.window(start, end) if column is not None else []
        if machine is not None and component is not None:
            records = [r for r in records if r.component == component]
        if min_level is not None:
            records = [r for r in records if r.level >= min_level]
        if pattern is not None:
            # LogRecord.matches, with the pattern lowered once per query.
            needle = pattern.lower()
            records = [r for r in records if needle in r.message.lower()]
        if limit is not None and len(records) > limit:
            records = records[len(records) - limit :]
        return records

    def count_by_level(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Dict[str, int]:
        """Count records per level name inside a time window."""
        counts: Dict[str, int] = {}
        for record in self.query(start=start, end=end):
            counts[record.level.name] = counts.get(record.level.name, 0) + 1
        return counts

    def error_signatures(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        top: int = 5,
    ) -> List[Tuple[str, int]]:
        """Group ERROR+ messages by normalised signature and return the top groups.

        Numbers and identifiers are replaced with placeholders so that
        repeated errors with varying parameters collapse into one signature,
        mirroring how on-call engineers eyeball "the top error message".
        Ties rank by signature text.
        """
        with self._lock:
            signatures = self._error_signatures.window(start, end)
        ranked = sorted(Counter(signatures).items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]

    def tail(self, n: int = 20) -> List[LogRecord]:
        """Return the ``n`` most recent records."""
        with self._lock:
            return self._all.items[-n:]


_NUMBER_RE = re.compile(r"\b\d+(\.\d+)?\b")
_HEX_RE = re.compile(r"\b0x[0-9a-fA-F]+\b")
_GUID_RE = re.compile(
    r"\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b"
)


def normalize_message(message: str) -> str:
    """Normalise a log message into a template signature.

    Replaces GUIDs, hexadecimal literals and decimal numbers with
    placeholders so that messages differing only in parameters share a
    signature.
    """
    signature = _GUID_RE.sub("<guid>", message)
    signature = _HEX_RE.sub("<hex>", signature)
    signature = _NUMBER_RE.sub("<num>", signature)
    return signature.strip()


def filter_records(
    records: Iterable[LogRecord], predicate: Callable[[LogRecord], bool]
) -> List[LogRecord]:
    """Filter an iterable of records with an arbitrary predicate."""
    return [record for record in records if predicate(record)]
