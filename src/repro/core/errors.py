"""Exception hierarchy of the RCACopilot pipeline.

Every pipeline error derives from :class:`RCACopilotError` and is
additionally classified along a *retryability* axis that the chaos layer's
retry policy (:mod:`repro.chaos`) keys on:

* :class:`TransientError` — the operation may succeed if simply retried
  (timeouts, unavailable dependencies, full queues, injected faults);
* :class:`PermanentError` — retrying the same call is pointless (missing
  handlers, unfitted indexes, corrupt on-disk state, schema violations).

Errors that are neither are *undetermined*: whether a retry helps depends
on context the type alone cannot capture (e.g. a generic
:class:`CollectionError`).  :func:`is_transient` folds stdlib exception
types (``TimeoutError``, ``ConnectionError``) into the same classification
so callers never need isinstance ladders.

The taxonomy is the single home for exception types that historically
lived next to their raise sites (``HandlerExecutionError`` in
``repro.handlers.execution``, ``SerializationError`` in
``repro.handlers.serialization``); those modules re-export them, so
existing import paths keep working.
"""

from __future__ import annotations


class RCACopilotError(Exception):
    """Base class for all pipeline errors."""


class TransientError(RCACopilotError):
    """An operation that failed now but may succeed if retried."""


class PermanentError(RCACopilotError):
    """An operation that will keep failing no matter how often it is retried."""


def is_transient(exc: BaseException) -> bool:
    """Classify an exception for retry policy.

    The taxonomy's own markers win; outside it, stdlib timeout and
    connection failures count as transient and everything else —
    including :class:`PermanentError` and unknown exception types — does
    not (an unclassified error is not worth burning retry budget on).
    """
    if isinstance(exc, TransientError):
        return True
    if isinstance(exc, PermanentError):
        return False
    return isinstance(exc, (TimeoutError, ConnectionError))


class CollectionError(RCACopilotError):
    """Raised when the diagnostic information collection stage fails."""


class NoHandlerError(CollectionError, PermanentError):
    """Raised when no incident handler exists for an incident's alert type."""


class HandlerExecutionError(CollectionError, TransientError, RuntimeError):
    """Raised when handler execution exceeds its step/wall bound or hits a bad node.

    Transient: step and wall budgets are typically blown by slow telemetry
    queries, which a later attempt (or a healthier replica) may not hit.
    Subclasses ``RuntimeError`` for backward compatibility with its
    original definition in ``repro.handlers.execution``.
    """


class SerializationError(PermanentError, ValueError):
    """Raised when a handler document cannot be (de)serialized.

    Permanent: the document itself is malformed; retrying cannot fix it.
    Subclasses ``ValueError`` for backward compatibility with its original
    definition in ``repro.handlers.serialization``.
    """


class PredictionError(RCACopilotError):
    """Raised when the root cause prediction stage fails."""


class NotFittedError(PredictionError, PermanentError):
    """Raised when prediction is attempted before indexing historical incidents."""


class LLMError(PredictionError):
    """Base class for chat-model call failures."""


class LLMTimeoutError(LLMError, TransientError):
    """Raised when a chat-model call exceeds its per-call timeout budget."""


class LLMUnavailableError(LLMError, TransientError):
    """Raised when the chat-model endpoint is unreachable or overloaded."""


class CircuitOpenError(LLMError):
    """Raised when a call is refused because the circuit breaker is open.

    Deliberately neither transient nor permanent: the breaker itself
    encodes when a retry becomes worthwhile (its cooldown), so callers
    should degrade rather than retry-loop against an open circuit.
    """


class IndexCorruptionError(PermanentError, ValueError):
    """Raised when a persisted vector index fails to load cleanly.

    Covers a corrupt or truncated ``manifest.json``, a manifest version
    other than 4 (retired layouts are named by number), a segment or
    codes file that is missing or shorter than the manifest's row counts
    need, and structurally invalid shard metadata.  A save that died
    midway is *not* a cause: the manifest is replaced last, so the
    directory still loads as the previous snapshot.  Permanent: the bytes
    on disk will not repair themselves — callers rebuild from the incident
    store (:func:`repro.chaos.load_index_resilient`).
    """


class IngestError(RCACopilotError):
    """Raised when the streaming ingestion front fails."""


class IngestQueueFull(IngestError, TransientError):
    """Raised when a non-blocking submit hits the bounded ingest queue's cap.

    For a burst submit (``submit_many``), :attr:`enqueued` carries the
    futures of the prefix that *did* enter the queue before the cap was
    hit — those alerts stay queued and their futures resolve at the next
    flush, exactly as if they had been submitted one at a time.  The
    caller sheds only the rejected suffix.  Scalar ``submit`` leaves the
    list empty (nothing entered the queue).
    """

    def __init__(self, message: str, enqueued=None) -> None:
        super().__init__(message)
        #: Futures of the already-enqueued prefix, in submission order.
        self.enqueued = list(enqueued) if enqueued is not None else []


class InjectedFault(TransientError):
    """Default error raised by :class:`repro.chaos.FaultInjector` injections.

    Transient by construction — injected faults model the flaky
    dependencies the resilience layer is meant to absorb.  Fault configs
    may substitute any other exception type.
    """
