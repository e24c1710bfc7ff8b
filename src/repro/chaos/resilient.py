"""Retry, timeout, backoff, and circuit breaking around the ChatModel boundary.

:class:`ResilientChatModel` wraps any :class:`~repro.llm.model.ChatModel`
with the resilience policy the chaos suite exercises:

* a cooperative **per-call timeout** measured on the injected clock (the
  model call is not forcibly cancelled — thread interruption is
  incompatible with deterministic fake-clock execution — but an attempt
  whose elapsed time exceeds the budget counts as failed and is retried
  or degraded);
* **capped exponential backoff with jitter** between attempts, slept on
  the injected clock so fake-clock tests involve zero real sleeps;
* a lifetime **retry budget** bounding the total retries spent across
  calls (exhausted budget = fail fast into degradation);
* a **circuit breaker** that trips after consecutive failures, refuses
  calls during its cooldown, and probes half-open before closing again;
* **graceful degradation**: when attempts, budget, or the breaker run
  out, the wrapper fabricates a deterministic degraded completion — for
  prediction prompts, the "Unseen incident / Unknown category / low
  confidence" answer the parser maps to a reviewable label — instead of
  letting the exception fail the whole micro-batch.

With no faults in flight (breaker closed, first attempt succeeds) the
wrapper delegates batches wholesale to the inner model, so completions,
in-batch deduplication, and usage accounting are value-identical to the
bare model — the parity contract the chaos suite locks.

:class:`FaultyChatModel` is the matching *fault-side* adapter: it fires a
:class:`~repro.chaos.injector.FaultInjector` site before delegating, so
injected timeouts, unavailability, latency, and corrupted completions
enter the pipeline exactly at the model boundary.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.clock import MONOTONIC_CLOCK, Clock
from ..core.errors import LLMTimeoutError, is_transient
from ..llm.model import ChatMessage, CompletionResult
from .injector import FaultInjector

#: Degraded answer for multiple-choice prediction prompts.  Parses (via
#: ``repro.llm.prompts.parse_prediction``) to the "Unseen incident" option
#: with new category ``Unknown``, so the batch still yields a label for
#: OCEs instead of failing.
DEGRADED_PREDICTION_TEXT = (
    "A: Unseen incident. New category: Unknown. "
    "Explanation: Degraded response (low confidence): the language model "
    "was unavailable, so this incident is routed to manual triage as an "
    "unseen category."
)

#: Degraded answer for summarization (and other free-form) prompts.
DEGRADED_SUMMARY_TEXT = (
    "Summary unavailable (low confidence): the language model was "
    "unavailable; refer to the raw diagnostic information."
)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of :class:`ResilientChatModel`'s retry loop and breaker."""

    #: Total attempts per call (1 = no retries).
    max_attempts: int = 3
    #: First backoff delay; doubles each retry up to ``max_delay_seconds``.
    base_delay_seconds: float = 0.05
    #: Cap on one backoff delay.
    max_delay_seconds: float = 2.0
    #: Jitter fraction: each delay is scaled by ``1 ± jitter`` uniformly.
    jitter: float = 0.1
    #: Per-conversation elapsed-time budget; None disables the timeout.
    call_timeout_seconds: Optional[float] = None
    #: Lifetime cap on retries across all calls; None = unbounded.
    retry_budget: Optional[int] = None
    #: Consecutive failed calls that trip the circuit breaker.
    failure_threshold: int = 5
    #: How long a tripped breaker refuses calls before probing half-open.
    breaker_cooldown_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.base_delay_seconds < 0.0 or self.max_delay_seconds < 0.0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.call_timeout_seconds is not None and self.call_timeout_seconds <= 0.0:
            raise ValueError("call_timeout_seconds must be positive (or None)")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative (or None)")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if self.breaker_cooldown_seconds < 0.0:
            raise ValueError("breaker_cooldown_seconds must be non-negative")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter."""
        delay = min(
            self.base_delay_seconds * (2.0 ** (attempt - 1)),
            self.max_delay_seconds,
        )
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class CircuitBreaker:
    """Consecutive-failure circuit breaker on the injected clock.

    closed --[``failure_threshold`` consecutive failures]--> open
    open --[``cooldown_seconds`` elapsed]--> half_open (one probe allowed)
    half_open --[success]--> closed; --[failure]--> open (cooldown restarts)

    Deterministic under a fake clock: state depends only on the
    success/failure sequence and clock readings.  Not internally locked —
    the owning wrapper serializes access.
    """

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = 5,
        cooldown_seconds: float = 30.0,
    ) -> None:
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0
        self.recoveries = 0

    def allow(self) -> bool:
        """Whether a call may proceed; transitions open -> half_open on cooldown."""
        if self.state == "closed":
            return True
        if self.state == "open":
            assert self.opened_at is not None
            if self._clock.monotonic() - self.opened_at >= self.cooldown_seconds:
                self.state = "half_open"
                return True
            return False
        return True  # half_open: let the probe(s) through

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != "closed":
            self.state = "closed"
            self.opened_at = None
            self.recoveries += 1

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == "half_open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = "open"
            self.opened_at = self._clock.monotonic()
            self.consecutive_failures = 0
            self.trips += 1


def degraded_completion(
    messages: Sequence[ChatMessage], model_name: str
) -> CompletionResult:
    """Fabricate the degraded completion for one conversation.

    Dispatches on the prompt's apparent intent exactly as
    :class:`~repro.llm.model.SimulatedLLM` does, so a prediction prompt
    degrades to a parseable "Unseen / Unknown" answer and everything else
    to a summary placeholder.  Zero token usage: no model was consulted.
    """
    prompt = "\n\n".join(message.content for message in messages)
    lowered = prompt.lower()
    if "options:" in lowered or "root cause category" in lowered:
        text = DEGRADED_PREDICTION_TEXT
    else:
        text = DEGRADED_SUMMARY_TEXT
    return CompletionResult(
        text=text,
        prompt_tokens=0,
        completion_tokens=0,
        model=f"{model_name}-degraded",
    )


class ResilientChatModel:
    """Timeout + retry + circuit breaker + degradation around a ChatModel."""

    def __init__(
        self,
        inner,
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.clock = clock or MONOTONIC_CLOCK
        self._rng = random.Random(f"resilient:{seed}")
        self._lock = threading.Lock()
        self.breaker = CircuitBreaker(
            self.clock,
            failure_threshold=self.policy.failure_threshold,
            cooldown_seconds=self.policy.breaker_cooldown_seconds,
        )
        self._retry_budget_left = self.policy.retry_budget
        self._counters: Dict[str, int] = {
            "calls": 0,
            "attempts": 0,
            "successes": 0,
            "retries": 0,
            "timeouts": 0,
            "transient_failures": 0,
            "permanent_failures": 0,
            "degraded": 0,
            "refused": 0,
        }

    # --------------------------------------------------------------- protocol
    @property
    def name(self) -> str:
        return self.inner.name

    def __getattr__(self, item: str):
        # Delegate unknown attributes (``noise``, ``usage``, ...) so the
        # wrapper is transparent to introspection like the predictor's
        # determinism check.  Only reached for attributes not set above.
        return getattr(self.inner, item)

    def complete(
        self, messages: Sequence[ChatMessage], temperature: float = 0.0
    ) -> CompletionResult:
        # Defined here, not left to __getattr__, which would reach the inner
        # model's complete with no retry: one conversation is a batch of one.
        return self.complete_many([messages], temperature=temperature)[0]

    def complete_many(
        self,
        conversations: Sequence[Sequence[ChatMessage]],
        temperature: float = 0.0,
    ) -> List[CompletionResult]:
        return self._call(list(conversations), temperature)

    # ------------------------------------------------------------- retry loop
    def _call(
        self,
        conversations: List[Sequence[ChatMessage]],
        temperature: float,
    ) -> List[CompletionResult]:
        if not conversations:
            return []
        count = len(conversations)
        with self._lock:
            self._counters["calls"] += 1
            if not self.breaker.allow():
                self._counters["refused"] += 1
                self._counters["degraded"] += count
                return [
                    degraded_completion(messages, self.name)
                    for messages in conversations
                ]
        attempt = 0
        while True:
            attempt += 1
            with self._lock:
                self._counters["attempts"] += 1
            started = self.clock.monotonic()
            error: Optional[BaseException] = None
            results: Optional[List[CompletionResult]] = None
            try:
                results = self.inner.complete_many(
                    conversations, temperature=temperature
                )
            except Exception as exc:  # noqa: BLE001 - classified below
                error = exc
            if error is None:
                budget = self.policy.call_timeout_seconds
                elapsed = self.clock.monotonic() - started
                if budget is not None and elapsed > budget * count:
                    error = LLMTimeoutError(
                        f"batch of {count} took {elapsed:.3f}s, over its "
                        f"{budget:g}s-per-call budget"
                    )
                    with self._lock:
                        self._counters["timeouts"] += 1
            if error is None:
                assert results is not None
                with self._lock:
                    self.breaker.record_success()
                    self._counters["successes"] += 1
                return list(results)
            transient = is_transient(error)
            with self._lock:
                if transient:
                    self._counters["transient_failures"] += 1
                else:
                    self._counters["permanent_failures"] += 1
                retry = (
                    transient
                    and attempt < self.policy.max_attempts
                    and self._take_retry_token_locked()
                )
                if not retry:
                    self.breaker.record_failure()
                    self._counters["degraded"] += count
                    return [
                        degraded_completion(messages, self.name)
                        for messages in conversations
                    ]
                self._counters["retries"] += 1
                delay = self.policy.backoff_delay(attempt, self._rng)
            if delay > 0.0:
                self.clock.sleep(delay)

    def _take_retry_token_locked(self) -> bool:
        if self._retry_budget_left is None:
            return True
        if self._retry_budget_left <= 0:
            return False
        self._retry_budget_left -= 1
        return True

    # ------------------------------------------------------------------- stats
    def stats_dict(self) -> Dict[str, float]:
        """Retry/breaker counters as a flat metric mapping (suffix -> value)."""
        state_code = {"closed": 0.0, "half_open": 1.0, "open": 2.0}
        with self._lock:
            flat = {key: float(value) for key, value in self._counters.items()}
            flat["breaker_trips"] = float(self.breaker.trips)
            flat["breaker_recoveries"] = float(self.breaker.recoveries)
            flat["breaker_state"] = state_code[self.breaker.state]
            if self._retry_budget_left is not None:
                flat["retry_budget_left"] = float(self._retry_budget_left)
        return flat


def _corrupt_text(text: str) -> str:
    """Deterministically garble a completion so no valid answer parses."""
    digest = zlib.crc32(text.encode("utf-8", "replace")) & 0xFFFFFFFF
    return f"corrupted-completion 0x{digest:08x} ~~ {text[:24].lower()}"


class FaultyChatModel:
    """Fault-side adapter firing an injector site before each model call.

    Transparent when the injector has nothing configured for its site:
    batch calls delegate wholesale, so completions and usage accounting
    match the bare model exactly.
    """

    def __init__(
        self,
        inner,
        injector: FaultInjector,
        site: str = "llm.complete",
    ) -> None:
        self.inner = inner
        self.injector = injector
        self.site = site

    @property
    def name(self) -> str:
        return self.inner.name

    def __getattr__(self, item: str):
        return getattr(self.inner, item)

    def complete(
        self, messages: Sequence[ChatMessage], temperature: float = 0.0
    ) -> CompletionResult:
        # Defined here, not left to __getattr__, which would reach the inner
        # model's complete with no fault: one conversation is a batch of one.
        return self.complete_many([messages], temperature=temperature)[0]

    def complete_many(
        self,
        conversations: Sequence[Sequence[ChatMessage]],
        temperature: float = 0.0,
    ) -> List[CompletionResult]:
        event = self.injector.sample(
            self.site, detail=f"complete_many:{len(conversations)}"
        )
        if event is not None and event.error is not None:
            raise event.error
        results = self.inner.complete_many(conversations, temperature=temperature)
        if event is not None and event.corrupt:
            results = [
                CompletionResult(
                    text=_corrupt_text(result.text),
                    prompt_tokens=result.prompt_tokens,
                    completion_tokens=result.completion_tokens,
                    model=result.model,
                )
                for result in results
            ]
        return results
