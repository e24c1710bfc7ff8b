"""ResilientChatModel: retries, timeouts, breaker, degradation, parity."""

from __future__ import annotations

import pytest
import streamtest_utils as stu

from repro.chaos import (
    DEGRADED_PREDICTION_TEXT,
    FaultConfig,
    FaultInjector,
    FaultyChatModel,
    ResilientChatModel,
    RetryPolicy,
)
from repro.core.errors import LLMUnavailableError, SerializationError
from repro.llm import SimulatedLLM
from repro.llm.model import ChatMessage, complete_many
from repro.llm.prompts import build_prediction_prompt, parse_prediction, Demonstration

PREDICTION_MESSAGES = [
    ChatMessage(
        role="user",
        content=build_prediction_prompt(
            "disk full on EXCH-01",
            [Demonstration("INC-1", "disk volume exhausted", "DiskFull")],
        ).text,
    )
]
SUMMARY_MESSAGES = [
    ChatMessage(
        role="user",
        content="error log lines here\n\nPlease summarize the above input.",
    )
]


class FlakyNTimesModel:
    """Raises a transient error for the first ``failures`` calls, then delegates."""

    def __init__(self, failures: int, exc_type=LLMUnavailableError) -> None:
        self.inner = SimulatedLLM()
        self.name = self.inner.name
        self.noise = 0.0
        self.remaining = failures
        self.exc_type = exc_type
        self.calls = 0

    def complete(self, messages, temperature: float = 0.0):
        return self.complete_many([messages], temperature=temperature)[0]

    def complete_many(self, conversations, temperature: float = 0.0):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc_type("endpoint down")
        return self.inner.complete_many(conversations, temperature=temperature)


class SlowVirtualModel:
    """Advances a FakeClock by ``seconds`` per batch call — virtual slowness."""

    def __init__(self, clock: stu.FakeClock, seconds: float) -> None:
        self.inner = SimulatedLLM()
        self.name = self.inner.name
        self.noise = 0.0
        self.clock = clock
        self.seconds = seconds

    def complete(self, messages, temperature: float = 0.0):
        return self.complete_many([messages], temperature=temperature)[0]

    def complete_many(self, conversations, temperature: float = 0.0):
        self.clock.advance(self.seconds)
        return self.inner.complete_many(conversations, temperature=temperature)


def _clock() -> stu.FakeClock:
    # auto_advance: backoff sleeps consume virtual time only.
    return stu.FakeClock(auto_advance=True)


def test_retry_then_success_no_degradation():
    inner = FlakyNTimesModel(failures=2)
    model = ResilientChatModel(
        inner, RetryPolicy(max_attempts=3, base_delay_seconds=0.0), clock=_clock()
    )
    result = model.complete(PREDICTION_MESSAGES)
    assert "Unseen" not in result.model  # real completion, not degraded
    stats = model.stats_dict()
    assert stats["retries"] == 2.0
    assert stats["successes"] == 1.0
    assert stats["degraded"] == 0.0


def test_attempts_exhausted_degrades_instead_of_raising():
    inner = FlakyNTimesModel(failures=10)
    model = ResilientChatModel(
        inner, RetryPolicy(max_attempts=3, base_delay_seconds=0.0), clock=_clock()
    )
    result = model.complete(PREDICTION_MESSAGES)
    assert result.text == DEGRADED_PREDICTION_TEXT
    assert result.model.endswith("-degraded")
    assert result.total_tokens == 0
    stats = model.stats_dict()
    assert stats["degraded"] == 1.0
    assert stats["retries"] == 2.0  # max_attempts - 1


def test_degraded_prediction_parses_to_unknown_category():
    prompt = build_prediction_prompt(
        "disk full on EXCH-01",
        [Demonstration("INC-1", "disk volume exhausted", "DiskFull")],
    )
    parsed = parse_prediction(DEGRADED_PREDICTION_TEXT, prompt)
    assert parsed.is_unseen
    assert parsed.new_category == "Unknown"
    assert "low confidence" in parsed.explanation.lower()


def test_degraded_summary_for_summarization_prompts():
    inner = FlakyNTimesModel(failures=10)
    model = ResilientChatModel(
        inner, RetryPolicy(max_attempts=1), clock=_clock()
    )
    result = model.complete(SUMMARY_MESSAGES)
    assert "Summary unavailable" in result.text


def test_permanent_errors_are_not_retried():
    inner = FlakyNTimesModel(failures=10, exc_type=SerializationError)
    model = ResilientChatModel(
        inner, RetryPolicy(max_attempts=5, base_delay_seconds=0.0), clock=_clock()
    )
    result = model.complete(PREDICTION_MESSAGES)
    assert result.model.endswith("-degraded")
    stats = model.stats_dict()
    assert stats["retries"] == 0.0
    assert stats["permanent_failures"] == 1.0
    assert inner.calls == 1


def test_timeout_counts_as_transient_failure():
    clock = _clock()
    model = ResilientChatModel(
        SlowVirtualModel(clock, seconds=3.0),
        RetryPolicy(
            max_attempts=2, base_delay_seconds=0.0, call_timeout_seconds=1.0
        ),
        clock=clock,
    )
    result = model.complete(PREDICTION_MESSAGES)
    assert result.model.endswith("-degraded")
    stats = model.stats_dict()
    assert stats["timeouts"] == 2.0
    assert stats["transient_failures"] == 2.0


def test_backoff_is_capped_exponential_with_jitter_on_clock():
    clock = _clock()
    inner = FlakyNTimesModel(failures=4)
    policy = RetryPolicy(
        max_attempts=5,
        base_delay_seconds=1.0,
        max_delay_seconds=4.0,
        jitter=0.25,
    )
    model = ResilientChatModel(inner, policy, clock=clock, seed=3)
    model.complete(PREDICTION_MESSAGES)
    # 4 backoffs: 1, 2, 4 (cap), 4 (cap), each jittered by at most 25%.
    elapsed = clock.monotonic()
    assert 11.0 * 0.75 <= elapsed <= 11.0 * 1.25


def test_retry_budget_exhausts_across_calls():
    clock = _clock()
    model = ResilientChatModel(
        FlakyNTimesModel(failures=100),
        RetryPolicy(
            max_attempts=3, base_delay_seconds=0.0, retry_budget=2,
            failure_threshold=100,
        ),
        clock=clock,
    )
    model.complete(PREDICTION_MESSAGES)  # burns both retry tokens
    stats = model.stats_dict()
    assert stats["retries"] == 2.0
    assert stats["retry_budget_left"] == 0.0
    model.complete(PREDICTION_MESSAGES)  # no tokens left: fail fast
    stats = model.stats_dict()
    assert stats["retries"] == 2.0
    assert stats["degraded"] == 2.0


def test_breaker_trips_refuses_and_recovers_deterministically():
    clock = _clock()
    inner = FlakyNTimesModel(failures=3)
    policy = RetryPolicy(
        max_attempts=1,
        failure_threshold=3,
        breaker_cooldown_seconds=30.0,
    )
    model = ResilientChatModel(inner, policy, clock=clock)
    # Three failed calls trip the breaker.
    for _ in range(3):
        assert model.complete(PREDICTION_MESSAGES).model.endswith("-degraded")
    stats = model.stats_dict()
    assert stats["breaker_trips"] == 1.0
    assert stats["breaker_state"] == 2.0  # open
    # While open: refused without touching the inner model.
    calls_before = inner.calls
    assert model.complete(PREDICTION_MESSAGES).model.endswith("-degraded")
    assert inner.calls == calls_before
    assert model.stats_dict()["refused"] == 1.0
    # After the cooldown the half-open probe goes through and closes it.
    clock.advance(30.0)
    result = model.complete(PREDICTION_MESSAGES)
    assert not result.model.endswith("-degraded")
    stats = model.stats_dict()
    assert stats["breaker_recoveries"] == 1.0
    assert stats["breaker_state"] == 0.0  # closed


def test_breaker_half_open_failure_reopens():
    clock = _clock()
    inner = FlakyNTimesModel(failures=100)
    policy = RetryPolicy(
        max_attempts=1, failure_threshold=2, breaker_cooldown_seconds=10.0
    )
    model = ResilientChatModel(inner, policy, clock=clock)
    model.complete(PREDICTION_MESSAGES)
    model.complete(PREDICTION_MESSAGES)
    assert model.stats_dict()["breaker_trips"] == 1.0
    clock.advance(10.0)
    model.complete(PREDICTION_MESSAGES)  # half-open probe fails
    stats = model.stats_dict()
    assert stats["breaker_trips"] == 2.0
    assert stats["breaker_state"] == 2.0


def test_healthy_wrapper_is_value_identical_to_bare_model():
    """The parity contract: no faults, closed breaker => wholesale delegation."""
    conversations = [PREDICTION_MESSAGES, SUMMARY_MESSAGES, PREDICTION_MESSAGES]
    bare = SimulatedLLM()
    expected = complete_many(bare, conversations)

    injector = FaultInjector(seed=0)  # nothing configured: inert
    inner = SimulatedLLM()
    wrapped = ResilientChatModel(
        FaultyChatModel(inner, injector),
        RetryPolicy(call_timeout_seconds=None),
        clock=_clock(),
    )
    actual = wrapped.complete_many(conversations)
    assert [r.text for r in actual] == [r.text for r in expected]
    assert [r.model for r in actual] == [r.model for r in expected]
    # Usage accounting (including in-batch dedup) matches the bare model.
    assert inner.usage.calls == bare.usage.calls
    assert inner.usage.prompt_tokens == bare.usage.prompt_tokens
    # The wrapper stays transparent to the predictor's determinism check.
    assert getattr(wrapped, "noise", None) == 0.0


def test_corrupt_fault_degrades_through_the_parser():
    injector = FaultInjector(seed=0).add(
        FaultConfig(site="llm.complete", corrupt=True, error=None)
    )
    model = FaultyChatModel(SimulatedLLM(), injector)
    result = model.complete(PREDICTION_MESSAGES)
    assert result.text.startswith("corrupted-completion")
    prompt = build_prediction_prompt(
        "disk full on EXCH-01",
        [Demonstration("INC-1", "disk volume exhausted", "DiskFull")],
    )
    parsed = parse_prediction(result.text, prompt)
    assert parsed.is_unseen  # garbage falls back to the unseen option


def test_retry_stats_count_the_retry():
    model = ResilientChatModel(
        FlakyNTimesModel(failures=1),
        RetryPolicy(max_attempts=2, base_delay_seconds=0.0),
        clock=_clock(),
    )
    model.complete(PREDICTION_MESSAGES)
    stats = model.stats_dict()
    assert stats["retries"] == 1.0
    assert stats["successes"] == 1.0
