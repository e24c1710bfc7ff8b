"""End-to-end chaos: every future resolves, degradation stays bounded.

The degraded-mode contract of the chaos harness:

* with all faults disabled the chaos wrappers are value-transparent —
  reports, feedback effects and ``IngestStats`` match a bare pipeline;
* under every fault type each submitted future still resolves (with a
  report or with the failure), the worker keeps consuming, and a fault
  only ever takes down its own blast radius (one alert, one batch);
* a 10% LLM fault rate degrades *accuracy* (some alerts route to the
  ``Unknown`` manual-triage category), never *liveness*, and leaves no
  threads behind.
"""

from __future__ import annotations

import threading

import pytest
import streamtest_utils as stu

from repro.chaos import (
    FaultConfig,
    FaultInjector,
    FaultyChatModel,
    ResilientChatModel,
    RetryPolicy,
)
from repro.core.errors import InjectedFault
from repro.llm import SimulatedLLM


def _alert_mix(count: int):
    types = [stu.SLEEPY_TYPE, stu.FLAKY_TYPE, stu.IDLE_TYPE]
    return [
        stu.make_stream_alert(position, alert_type=types[position % len(types)])
        for position in range(count)
    ]


def _resilient(injector: FaultInjector, **policy_overrides) -> ResilientChatModel:
    policy = RetryPolicy(
        max_attempts=policy_overrides.pop("max_attempts", 2),
        base_delay_seconds=0.0,
        failure_threshold=policy_overrides.pop("failure_threshold", 1000),
        **policy_overrides,
    )
    return ResilientChatModel(
        FaultyChatModel(SimulatedLLM(), injector),
        policy,
        clock=stu.FakeClock(auto_advance=True),
    )


def _run_stream(
    alerts, model=None, injector=None, arm=None, strict=True, **config_kwargs
):
    """Build a copilot, stream the alerts through it, and drain everything.

    ``arm`` is called after the copilot (and its LLM-driven history
    indexing) is built — fault configs added there target the streamed
    alerts only, not the healthy warm-up traffic.
    """
    copilot = stu.build_stream_copilot(strict=strict, model=model)
    if injector is not None:
        copilot.collection._executor.fault_injector = injector
    if arm is not None:
        arm()
    ingestor = copilot.stream(stu.ingest_config(collect_workers=2, **config_kwargs))
    futures = ingestor.submit_many(alerts)
    ingestor.stop()
    reports, failures = stu.drain_futures(futures)
    return copilot, ingestor, reports, failures


def _label(fingerprint):
    return fingerprint[9]  # predicted_label slot of report_fingerprint


class TestParity:
    """Acceptance gate: faults disabled => value-identical to the bare stack."""

    def test_inert_chaos_stack_matches_bare_pipeline(self):
        alerts = _alert_mix(12)
        bare_copilot, bare_ingestor, bare_reports, bare_failures = _run_stream(
            alerts
        )
        chaos_copilot, chaos_ingestor, chaos_reports, chaos_failures = _run_stream(
            alerts, model=_resilient(FaultInjector(seed=0)), injector=FaultInjector(seed=1)
        )
        assert chaos_reports == bare_reports
        assert chaos_failures == bare_failures == {}
        for stats_field in ("submitted", "processed", "batches", "worker_errors"):
            assert getattr(chaos_ingestor.stats(), stats_field) == getattr(
                bare_ingestor.stats(), stats_field
            )
        assert (
            chaos_ingestor.stats().flush_reasons
            == bare_ingestor.stats().flush_reasons
        )

    def test_inert_chaos_stack_matches_bare_feedback_effects(self):
        alerts = _alert_mix(6)
        states = []
        for model in (None, _resilient(FaultInjector(seed=0))):
            copilot = stu.build_stream_copilot(model=model)
            ingestor = copilot.stream(stu.ingest_config(collect_workers=2))
            futures = ingestor.submit_many(alerts)
            ingestor.stop()
            reports = [future.result(timeout=60.0) for future in futures]
            copilot.record_feedback(reports[0].incident, "ConfirmedCategory")
            copilot.record_feedback(reports[1].incident, "AnotherCategory")
            incident_ids = [report.incident.incident_id for report in reports]
            states.append(stu.index_state(copilot, incident_ids))
        assert states[0] == states[1]


class TestFuturesAlwaysResolve:
    def test_handler_faults_shed_only_their_own_futures(self, chaos_seed):
        """Exactly ``max_injections`` alerts fail; every other one succeeds."""
        alerts = _alert_mix(9)
        injector = FaultInjector(seed=chaos_seed).add(
            FaultConfig(site="handler.step", max_injections=2)
        )
        _, ingestor, reports, failures = _run_stream(alerts, injector=injector)
        assert len(failures) == 2
        assert len(reports) == 7
        # Strict collection wraps the injected action failure per-incident.
        assert all(
            name == "CollectionError" and "injected fault" in text
            for name, text in failures.values()
        )
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == 9

    def test_handler_faults_degrade_to_partial_reports_when_lenient(
        self, chaos_seed
    ):
        alerts = _alert_mix(9)
        injector = FaultInjector(seed=chaos_seed).add(
            FaultConfig(site="handler.step", max_injections=2)
        )
        _, _, reports, failures = _run_stream(
            alerts, injector=injector, strict=False
        )
        # Lenient collection swallows the injected action failure: every
        # alert still produces a report (with partial action output).
        assert failures == {}
        assert len(reports) == 9

    def test_unprotected_llm_fault_fails_one_batch_not_the_stream(self):
        """Without the resilient wrapper a batch dies; the stream survives."""
        injector = FaultInjector(seed=0)
        copilot = stu.build_stream_copilot(
            model=FaultyChatModel(SimulatedLLM(), injector)
        )
        # Armed only now: history indexing above ran fault-free.
        injector.add(FaultConfig(site="llm.complete", max_injections=1))
        ingestor = copilot.stream(stu.ingest_config(collect_workers=2))
        first_wave = ingestor.submit_many(_alert_mix(4))
        ingestor.flush()
        second_wave = ingestor.submit_many(_alert_mix(4))
        ingestor.stop()
        _, first_failures = stu.drain_futures(first_wave)
        second_reports, second_failures = stu.drain_futures(second_wave)
        assert len(first_failures) == 4  # the poisoned batch: all resolved
        assert all(
            name == "InjectedFault" for name, _ in first_failures.values()
        )
        assert second_failures == {}  # the worker kept consuming
        assert len(second_reports) == 4
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == 8

    def test_resilient_llm_fault_degrades_without_failing_any_future(self):
        injector = FaultInjector(seed=0)
        alerts = _alert_mix(6)
        model = _resilient(injector, max_attempts=2)
        _, _, reports, failures = _run_stream(
            alerts,
            model=model,
            arm=lambda: injector.add(
                FaultConfig(site="llm.complete", probability=1.0)
            ),
        )
        assert failures == {}
        assert len(reports) == 6
        # Every completion was injected away, so every label degrades to
        # the manual-triage category instead of an exception.
        assert {_label(fp) for fp in reports.values()} == {"Unknown"}
        stats = model.stats_dict()
        assert stats["degraded"] > 0.0

    def test_injected_delay_is_virtual_through_the_model_clock(self):
        clock = stu.FakeClock(auto_advance=True)
        injector = FaultInjector(seed=0, clock=clock)
        model = ResilientChatModel(
            FaultyChatModel(SimulatedLLM(), injector),
            RetryPolicy(max_attempts=2, base_delay_seconds=0.0),
            clock=clock,
        )
        _, _, reports, failures = _run_stream(
            _alert_mix(3),
            model=model,
            arm=lambda: injector.add(
                FaultConfig(site="llm.complete", delay_seconds=45.0, error=None)
            ),
        )
        assert failures == {}
        assert len(reports) == 3
        assert clock.monotonic() >= 45.0  # the slowdown happened — virtually


class TestBoundedDegradation:
    def _degradation_run(self, count: int, seed: int):
        alerts = _alert_mix(count)
        _, _, healthy_reports, healthy_failures = _run_stream(
            alerts, max_batch=8
        )
        assert healthy_failures == {}
        injector = FaultInjector(seed=seed)
        before = set(threading.enumerate())
        chaos_model = _resilient(injector, max_attempts=2)
        _, ingestor, chaos_reports, chaos_failures = _run_stream(
            alerts,
            model=chaos_model,
            max_batch=8,
            arm=lambda: injector.add(
                FaultConfig(site="llm.complete", probability=0.1)
            ),
        )
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ]
        return healthy_reports, chaos_reports, chaos_failures, leaked, ingestor

    def test_ten_percent_llm_faults_bounded_accuracy_zero_lost_futures(
        self, chaos_seed
    ):
        healthy, chaos, failures, leaked, ingestor = self._degradation_run(
            24, chaos_seed
        )
        assert failures == {}  # liveness: no future was lost or failed
        assert len(chaos) == len(healthy) == 24
        degraded = [
            position
            for position in healthy
            if _label(chaos[position]) != _label(healthy[position])
        ]
        # Degradation is bounded: every diverging label is the explicit
        # manual-triage route, and retries keep most of the stream exact.
        assert all(_label(chaos[p]) == "Unknown" for p in degraded)
        assert len(degraded) < 24
        assert leaked == []
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == 24

    @pytest.mark.slow
    def test_soak_heavier_stream_with_mixed_fault_sites(self, chaos_seed):
        """Chaos-soak: larger stream, faults on both boundaries at once."""
        alerts = _alert_mix(96)
        injector = FaultInjector(seed=chaos_seed)
        handler_faults = FaultInjector(seed=chaos_seed + 1).add(
            FaultConfig(site="handler.step", probability=0.05)
        )
        before = set(threading.enumerate())
        model = _resilient(injector, max_attempts=3)
        _, ingestor, reports, failures = _run_stream(
            alerts,
            model=model,
            injector=handler_faults,
            strict=False,
            max_batch=16,
            arm=lambda: injector.add(
                FaultConfig(site="llm.complete", probability=0.1)
            ),
        )
        assert failures == {}  # lenient collection + resilient LLM
        assert len(reports) == 96
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == 96
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ]
        assert leaked == []
