"""Chaos harness: deterministic fault injection and resilience wrappers.

The pipeline's four dependency boundaries — handler actions, the chat
model, persisted index I/O, and the streaming collect path — each get a
thin adapter through which a seeded, clock-driven
:class:`~repro.chaos.injector.FaultInjector` can perturb them, plus the
resilience mechanism that absorbs the perturbation:

==========================  =============================  =========================
boundary                    fault adapter                   resilience
==========================  =============================  =========================
handler actions             ``HandlerExecutor``'s           per-alert containment in
                            ``fault_injector`` hook         the collection stage/pool
chat model                  :class:`FaultyChatModel`        :class:`ResilientChatModel`
                                                            (timeout/retry/backoff/
                                                            breaker/degradation)
index load-save I/O         corrupt bytes on disk           typed
                                                            ``IndexCorruptionError`` +
                                                            :func:`load_index_resilient`
ingest queue / collect      slow or crashing handlers       futures shed per alert
                            via the handler hook
==========================  =============================  =========================

Counters: injections are read from :meth:`FaultInjector.stats_dict`,
retries/trips/degradations from :meth:`ResilientChatModel.stats_dict`.
Neither writes into the telemetry hub the handlers diagnose from.
"""

from .injector import NO_FAULTS, FaultConfig, FaultEvent, FaultInjector
from .recovery import load_index_resilient
from .resilient import (
    DEGRADED_PREDICTION_TEXT,
    DEGRADED_SUMMARY_TEXT,
    CircuitBreaker,
    FaultyChatModel,
    ResilientChatModel,
    RetryPolicy,
    degraded_completion,
)

__all__ = [
    "NO_FAULTS",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "load_index_resilient",
    "DEGRADED_PREDICTION_TEXT",
    "DEGRADED_SUMMARY_TEXT",
    "CircuitBreaker",
    "FaultyChatModel",
    "ResilientChatModel",
    "RetryPolicy",
    "degraded_completion",
]
