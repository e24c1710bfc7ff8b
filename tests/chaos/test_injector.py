"""FaultInjector unit tests: determinism, windows, budgets, telemetry."""

from __future__ import annotations

import pytest
import streamtest_utils as stu

from repro.chaos import FaultConfig, FaultInjector
from repro.core.errors import InjectedFault, LLMUnavailableError, TransientError


def _fire_sequence(injector: FaultInjector, site: str, calls: int) -> list:
    """True/False per call: did an error-fault fire?"""
    outcome = []
    for _ in range(calls):
        try:
            injector.fire(site)
        except InjectedFault:
            outcome.append(True)
        else:
            outcome.append(False)
    return outcome


def test_same_seed_same_sequence():
    make = lambda: FaultInjector(seed=42).add(
        FaultConfig(site="llm.complete", probability=0.3)
    )
    first = _fire_sequence(make(), "llm.complete", 50)
    second = _fire_sequence(make(), "llm.complete", 50)
    assert first == second
    assert any(first) and not all(first)


def test_different_seeds_differ():
    a = _fire_sequence(
        FaultInjector(seed=1).add(FaultConfig(site="s", probability=0.5)), "s", 64
    )
    b = _fire_sequence(
        FaultInjector(seed=2).add(FaultConfig(site="s", probability=0.5)), "s", 64
    )
    assert a != b


def test_sites_draw_independent_streams():
    """Adding a second site never shifts the first site's draw sequence."""
    solo = FaultInjector(seed=7).add(FaultConfig(site="a", probability=0.4))
    duo = FaultInjector(seed=7).add(FaultConfig(site="a", probability=0.4)).add(
        FaultConfig(site="b", probability=0.4)
    )
    sequence_solo = []
    sequence_duo = []
    for _ in range(40):
        sequence_solo.append(solo.sample("a") is not None)
        sequence_duo.append(duo.sample("a") is not None)
        duo.sample("b")  # interleaved draws on the other site
    assert sequence_solo == sequence_duo


def test_unconfigured_site_is_inert():
    injector = FaultInjector(seed=0)
    assert injector.fire("anything") is None
    assert injector.stats_dict()["injections_total"] == 0.0


def test_activation_window_on_fake_clock():
    clock = stu.FakeClock(auto_advance=True)
    injector = FaultInjector(seed=0, clock=clock).add(
        FaultConfig(site="s", start_seconds=10.0, duration_seconds=5.0)
    )
    assert injector.sample("s") is None  # before the window
    clock.advance(10.0)
    assert injector.sample("s") is not None  # inside
    clock.advance(5.0)
    assert injector.sample("s") is None  # expired


def test_max_injections_budget():
    injector = FaultInjector(seed=0).add(
        FaultConfig(site="s", max_injections=3, error=None)
    )
    fired = [injector.sample("s") is not None for _ in range(10)]
    assert fired == [True, True, True] + [False] * 7


def test_delay_goes_through_clock_not_real_time():
    clock = stu.FakeClock(auto_advance=True)
    injector = FaultInjector(seed=0, clock=clock).add(
        FaultConfig(site="s", delay_seconds=120.0, error=None)
    )
    event = injector.sample("s")
    assert event is not None and event.delay_seconds == 120.0
    # Virtual time advanced by the full injected delay; the call returned
    # immediately in real time (a real 120s sleep would trip the test
    # timeout long before this assertion).
    assert clock.monotonic() == pytest.approx(120.0)
    assert injector.stats_dict()["delay_seconds_total"] == pytest.approx(120.0)


def test_match_predicate_scopes_faults():
    injector = FaultInjector(seed=0).add(
        FaultConfig(site="handler.step", match=lambda detail: detail == "probe_b")
    )
    assert injector.sample("handler.step", detail="probe_a") is None
    assert injector.sample("handler.step", detail="probe_b") is not None


def test_error_class_and_factory_specs():
    injector = FaultInjector(seed=0).add(
        FaultConfig(site="class", error=LLMUnavailableError)
    ).add(
        FaultConfig(site="factory", error=lambda detail: ValueError(f"bad {detail}"))
    )
    with pytest.raises(LLMUnavailableError):
        injector.fire("class", detail="x")
    with pytest.raises(ValueError, match="bad y"):
        injector.fire("factory", detail="y")
    # The default error type is classified transient, driving retry policy.
    assert issubclass(InjectedFault, TransientError)


def test_stats_count_every_injection():
    injector = FaultInjector(seed=0).add(FaultConfig(site="llm.complete", error=None))
    for _ in range(4):
        injector.sample("llm.complete")
    stats = injector.stats_dict()
    assert stats["injections_total"] == 4.0
    assert stats["injections_llm_complete"] == 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        FaultConfig(site="s", probability=1.5)
    with pytest.raises(ValueError):
        FaultConfig(site="s", delay_seconds=-1.0)
    with pytest.raises(ValueError):
        FaultConfig(site="s", max_injections=0)
