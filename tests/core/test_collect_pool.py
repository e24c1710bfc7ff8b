"""Unit tests for the collection worker pool behind every diagnosis.

Covers the pool's execution contract directly, without the ingestion front:
``diagnose_many`` as one serial wave (strict mode collects every incident,
then raises the first failure; an incident keeps its id), submission-order
folding, serial/thread-pool equivalence, per-item crash containment (a
raising handler fails only its own slot and the pool survives the next
wave), script-action and handler-less collection on the pool, the executor
wall-clock budget, the pool's close/rebuild lifecycle and its worker-second
accounting, collection staying in one process, the sharing of equal section
text between the reports of a wave and of a replayed burst, and the query
results a batch shares (a burst collects as one alert at a time would,
writes and faults between queries included).
"""

from __future__ import annotations

import dataclasses
import gc
import pathlib
import random
import re
import sys
import threading

import pytest

import repro
import streamtest_utils as stu
from repro.bus import AlertEvent, BusReplayer, build_recording
from repro.chaos import FaultConfig, FaultInjector
from repro.cloudsim import TransportService
from repro.cloudsim.scenarios import TABLE1_SCENARIOS
from repro.core import (
    CollectionConfig,
    CollectionPool,
    CollectionStage,
    CollectionError,
    IngestConfig,
    PipelineConfig,
    RCACopilot,
    VirtualClock,
)
from repro.handlers import (
    CoalescingScope,
    HandlerRegistry,
    QueryAction,
    default_registry,
    linear_handler,
)
from repro.llm import SimulatedLLM
from repro.monitors import AlertRouter
from repro.telemetry import TelemetryHub


def build_stage(strict: bool = True, registry=None, wall_budget=None) -> CollectionStage:
    hub = TelemetryHub()
    stu.seed_hub(hub)
    return CollectionStage(
        registry if registry is not None else stu.stream_test_registry(),
        hub,
        CollectionConfig(strict=strict, handler_wall_budget_seconds=wall_budget),
    )


def outcome_fingerprint(result):
    outcome = result.outcome
    execution = outcome.execution
    return (
        result.index,
        result.incident.incident_id,
        outcome.matched_handler,
        tuple(step.node_id for step in execution.steps) if execution else (),
        tuple(sorted(result.incident.action_output.items())),
        result.incident.diagnostic.render() if result.incident.diagnostic else "",
    )


class EveryQueryRuns(CoalescingScope):
    """The reference scope: every query goes to the hub."""

    def query(self, key, stores, run):
        return run()


def flash_crowd_alerts(count: int, seed: int = 7):
    """A flash crowd of simulated alerts: storms over shared windows."""
    service = TransportService(seed=seed)
    service.monitors.router = AlertRouter(dedup_window=120.0)
    service.warm_up(hours=0.25)
    rng = random.Random(3)
    categories = [scenario.category for scenario in TABLE1_SCENARIOS]
    forests = [forest.name for forest in service.topology.forests]
    alerts = []
    while len(alerts) < count:
        for _ in range(3):
            service.inject(rng.choice(categories), forest=rng.choice(forests))
        alerts.extend(service.advance(120.0))
    return service, alerts[:count]


def collection_fingerprint(outcome):
    """Everything collection hands on: the report's bytes, outputs, steps."""
    execution = outcome.execution
    return (
        outcome.matched_handler,
        outcome.incident.diagnostic.render() if outcome.incident.diagnostic else "",
        tuple(outcome.incident.action_output.items()),
        tuple((s.node_id, s.action_name, s.outcome) for s in execution.steps)
        if execution
        else (),
        tuple(execution.mitigations) if execution else (),
    )


def count_hub_queries(hub, counts):
    """Count every call of the hub's query entry points into ``counts``."""
    for store, names in (
        (hub, ("busiest_machine", "error_summary")),
        (hub.logs, ("query", "error_signatures")),
        (hub.events, ("query",)),
        (hub.metrics, ("series", "top_machines", "metric_names")),
        (hub.traces, ("error_traces", "error_rate_by_service")),
    ):
        for name in names:
            def counted(*args, _inner=getattr(store, name), **kwargs):
                counts[0] += 1
                return _inner(*args, **kwargs)

            setattr(store, name, counted)


class TestBackendEquivalence:
    @pytest.mark.parametrize("workers", [None, 4])
    def test_a_burst_collects_as_one_alert_at_a_time(self, workers):
        """A wave's shared queries change no byte of any alert's collection."""
        service, alerts = flash_crowd_alerts(48)
        stage = CollectionStage(
            default_registry(), service.hub, CollectionConfig(strict=False)
        )
        queries = [0]
        count_hub_queries(service.hub, queries)
        alone = [
            collection_fingerprint(stage.collect(stage.parse_alert(alert), EveryQueryRuns()))
            for alert in alerts
        ]
        queried_alone, queries[0] = queries[0], 0
        with CollectionPool(stage, workers=workers) as pool:
            results = pool.run(alerts)
            assert [collection_fingerprint(r.outcome) for r in results] == alone
            queried_alerts, queries[0] = queries[0], 0
            # Already-parsed incidents, as diagnose_many hands them over.
            batch = pool.run([stage.parse_alert(alert) for alert in alerts])
        assert [collection_fingerprint(r.outcome) for r in batch] == alone
        assert sum(1 for r in batch if r.outcome.collected) > len(alerts) // 2
        # The burst asks the hub the same questions: the wave sends fewer.
        assert queried_alerts < 0.8 * queried_alone
        assert queries[0] < 0.8 * queried_alone

    def test_all_backends_fold_identically(self):
        alerts = [
            stu.make_stream_alert(i, alert_type=t)
            for i, t in enumerate([stu.SLEEPY_TYPE, stu.FLAKY_TYPE] * 3)
        ]
        baselines = None
        for workers in (None, 3):
            stage = build_stage()
            pool = CollectionPool(stage, workers=workers)
            with pool:
                results = pool.run(alerts)
            assert all(r.ok for r in results)
            fingerprints = [outcome_fingerprint(r) for r in results]
            if baselines is None:
                baselines = fingerprints
            else:
                assert fingerprints == baselines

    def test_results_come_back_in_submission_order(self):
        stage = build_stage()
        alerts = [stu.make_stream_alert(i) for i in range(10)]
        pool = CollectionPool(stage, workers=4)
        with pool:
            results = pool.run(alerts)
        assert [r.index for r in results] == list(range(10))
        # Ids are reserved in submission order, however the workers interleave.
        assert [r.incident.incident_id for r in results] == [
            f"INC-LIVE-{n:06d}" for n in range(1, 11)
        ]
        assert stage.next_incident_id() == "INC-LIVE-000011"

    def test_an_empty_wave_reserves_no_id(self):
        stage = build_stage()
        for workers in (None, 2):
            with CollectionPool(stage, workers=workers) as pool:
                assert pool.run([]) == []
        assert stage.next_incident_id() == "INC-LIVE-000001"

    def test_invalid_pool_parameters_rejected(self):
        stage = build_stage()
        with pytest.raises(ValueError):
            CollectionPool(stage, workers=0)
        with pytest.raises(ValueError):
            IngestConfig(collect_workers=0)
        with pytest.raises(ValueError):
            CollectionConfig(handler_wall_budget_seconds=0.0)
        with pytest.raises(ValueError):
            CollectionConfig(lookback_seconds=0.0)


class TestOneWave:
    """``diagnose_many`` collects as one serial pool wave, with the wave's rule."""

    def test_a_strict_batch_collects_every_incident_then_raises(self):
        copilot = stu.build_stream_copilot(strict=True)
        stage = copilot.collection
        collected = []
        original = stage.collect

        def counted(incident, queries=None):
            collected.append(incident.incident_id)
            return original(incident, queries)

        stage.collect = counted
        incidents = [
            stage.parse_alert(stu.make_stream_alert(i, alert_type=t, flaky=flaky))
            for i, (t, flaky) in enumerate(
                [(stu.IDLE_TYPE, False), (stu.FLAKY_TYPE, True), (stu.IDLE_TYPE, False)]
            )
        ]
        with pytest.raises(CollectionError) as raised:
            copilot.diagnose_many(incidents)
        assert collected == [incident.incident_id for incident in incidents]
        assert f"on incident {incidents[1].incident_id}:" in str(raised.value)
        assert "simulated telemetry outage" in str(raised.value.__cause__)
        # The failed wave leaves the copilot whole: a clean batch diagnoses.
        clean = [
            stage.parse_alert(stu.make_stream_alert(3 + i, alert_type=stu.IDLE_TYPE))
            for i in range(2)
        ]
        reports = copilot.diagnose_many(clean)
        assert [r.incident for r in reports] == clean
        assert all(r.collection.collected and r.prediction is not None for r in reports)

    def test_the_first_failure_in_submission_order_is_raised(self):
        copilot = stu.build_stream_copilot(strict=True, with_history=False)
        incidents = [
            copilot.collection.parse_alert(
                stu.make_stream_alert(i, alert_type=stu.FLAKY_TYPE, flaky=flaky)
            )
            for i, flaky in enumerate([False, True, True])
        ]
        with pytest.raises(CollectionError, match=f"on incident {incidents[1].incident_id}:"):
            copilot.diagnose_many(incidents)

    def test_an_incident_keeps_its_id_and_reserves_none(self):
        copilot = stu.build_stream_copilot(with_history=False)
        stage = copilot.collection
        incident = stage.parse_alert(stu.make_stream_alert(0, alert_type=stu.IDLE_TYPE))
        assert incident.incident_id == "INC-LIVE-000001"
        with CollectionPool(stage) as pool:
            results = pool.run([incident, stu.make_stream_alert(1, alert_type=stu.IDLE_TYPE)])
        assert results[0].incident is incident
        assert incident.incident_id == "INC-LIVE-000001"
        assert results[1].incident.incident_id == "INC-LIVE-000002"
        report = copilot.observe(stu.make_stream_alert(2, alert_type=stu.IDLE_TYPE))
        assert report.incident.incident_id == "INC-LIVE-000003"


class TestCrashContainment:
    @pytest.mark.parametrize("workers", [None, 4])
    def test_failure_hits_only_its_slot_and_pool_survives(self, workers):
        stage = build_stage(strict=True)
        flaky_positions = {1, 4}
        alerts = [
            stu.make_stream_alert(
                i, alert_type=stu.FLAKY_TYPE, flaky=(i in flaky_positions)
            )
            for i in range(6)
        ]
        pool = CollectionPool(stage, workers=workers)
        with pool:
            results = pool.run(alerts)
            assert {r.index for r in results if not r.ok} == flaky_positions
            for result in results:
                if result.ok:
                    assert result.outcome.matched_handler == "stream-flaky"
                else:
                    assert isinstance(result.error, CollectionError)
                    assert "simulated telemetry outage" in str(result.error)
            # The pool is still fully operational for the next wave.
            second = [stu.make_stream_alert(100 + i) for i in range(4)]
            wave2 = pool.run(second)
            assert all(r.ok for r in wave2)

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_a_wave_only_reads_the_hub(self, workers):
        """Handler queries read the shared hub; a wave, its failed slots
        included, writes nothing into it."""
        stage = build_stage(strict=True)
        before = stu.hub_state(stage.hub)
        alerts = [
            stu.make_stream_alert(i, alert_type=stu.FLAKY_TYPE, flaky=(i == 1))
            for i in range(4)
        ]
        with CollectionPool(stage, workers=workers) as pool:
            results = pool.run(alerts)
        assert [result.ok for result in results] == [True, False, True, True]
        assert stu.hub_state(stage.hub) == before

    def test_nonstrict_mode_degrades_instead_of_failing(self):
        stage = build_stage(strict=False)
        alerts = [stu.make_stream_alert(0, alert_type=stu.FLAKY_TYPE, flaky=True)]
        pool = CollectionPool(stage, workers=2)
        with pool:
            results = pool.run(alerts)
        assert results[0].ok
        assert results[0].outcome.matched_handler == "stream-flaky"
        assert results[0].outcome.execution is None

    def test_wall_budget_overrun_contained_per_item(self):
        # The sleepy handler's first step sleeps past the 1ms budget, so the
        # budget check trips at the next node boundary; the flaky-type alert
        # (not flagged flaky) runs fast handlers and stays under budget.
        stage = build_stage(strict=True, wall_budget=0.001)
        alerts = [
            stu.make_stream_alert(0, alert_type=stu.SLEEPY_TYPE),
            stu.make_stream_alert(1, alert_type=stu.FLAKY_TYPE),
        ]
        pool = CollectionPool(stage, workers=2)
        # A full garbage collection landing inside the fast alert's run can
        # alone take longer than the 1ms budget; collecting first leaves the
        # wave's own allocations far below the next full collection.
        gc.collect()
        with pool:
            results = pool.run(alerts)
        assert not results[0].ok
        assert "wall-clock budget" in str(results[0].error)
        assert results[1].ok


class TestPooledHandlers:
    def test_script_handler_collects_on_the_thread_pool(self):
        registry = stu.stream_test_registry()
        registry.register(
            linear_handler(
                "StreamScripted",
                "stream-scripted",
                [QueryAction("run_tool", source="script", script=lambda ctx: {"x": "1"})],
            )
        )
        stage = build_stage(registry=registry)
        alerts = [
            stu.make_stream_alert(0, alert_type="StreamScripted"),
            stu.make_stream_alert(1, alert_type=stu.SLEEPY_TYPE),
        ]
        with CollectionPool(stage, workers=2) as pool:
            results = pool.run(alerts)
        assert all(r.ok for r in results)
        assert results[0].outcome.matched_handler == "stream-scripted"

    def test_no_handler_behaviour_matches_across_backends(self):
        # An alert type with no registered handler degrades (non-strict) the
        # same way serially and on the thread pool.
        registry = HandlerRegistry()
        for workers in (None, 2):
            stage = CollectionStage(registry, TelemetryHub(), CollectionConfig(strict=False))
            pool = CollectionPool(stage, workers=workers)
            with pool:
                results = pool.run([stu.make_stream_alert(0)])
            assert results[0].ok
            assert results[0].outcome.matched_handler is None
            assert results[0].outcome.execution is None


def collect_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rcacopilot-collect")]


class TestPoolLifecycle:
    def test_close_is_idempotent_and_a_later_run_rebuilds(self):
        stage = build_stage()
        pool = CollectionPool(stage, workers=2)
        alerts = [stu.make_stream_alert(i) for i in range(3)]
        assert all(r.ok for r in pool.run(alerts))
        first = pool._executor  # noqa: SLF001
        assert first is not None
        pool.close()
        pool.close()  # a repeated close is a no-op
        assert pool._executor is None  # noqa: SLF001
        results = pool.run(alerts)
        assert all(r.ok for r in results)
        assert pool._executor is not None and pool._executor is not first  # noqa: SLF001
        pool.close()

    def test_close_joins_every_collect_thread(self):
        before = set(collect_threads())
        stage = build_stage()
        with CollectionPool(stage, workers=3) as pool:
            alerts = [stu.make_stream_alert(i, alert_type=stu.SLEEPY_TYPE) for i in range(6)]
            assert all(r.ok for r in pool.run(alerts))
            assert set(collect_threads()) - before
        assert set(collect_threads()) <= before

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_pool_size_is_the_configured_size_across_waves(self, workers):
        stage = build_stage()
        with CollectionPool(stage, workers=workers) as pool:
            for wave in range(3):
                alerts = [stu.make_stream_alert(10 * wave + i) for i in range(4)]
                assert all(r.ok for r in pool.run(alerts))
                assert pool.workers == workers
                # A serial pool runs inline and never builds an executor.
                assert (pool._executor is None) == (workers is None)  # noqa: SLF001

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_wave_runs_on_exactly_workers_threads(self, workers):
        """Every collect waits for ``workers`` peers: a wave of 2 x workers
        alerts completes only if the pool runs that many at once, and a
        pool never holds more threads than its size."""
        before = set(collect_threads())
        stage = build_stage()
        peers = threading.Barrier(workers, timeout=10.0)
        original = stage.collect

        def collect_with_peers(incident, queries):
            peers.wait()
            return original(incident, queries)

        stage.collect = collect_with_peers
        with CollectionPool(stage, workers=workers) as pool:
            alerts = [stu.make_stream_alert(i) for i in range(2 * workers)]
            results = pool.run(alerts)
            assert [r.error for r in results] == [None] * len(alerts)
            assert len(set(collect_threads()) - before) == workers

    def test_source_starts_no_worker_processes(self):
        """Collection runs in the ingesting process, serially or on threads.

        The benchmark's CPU and RSS metrics measure only its own process, so
        work moved into a child process would escape them.
        """
        package = pathlib.Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(package)}:{number}"
            for path in sorted(package.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"multiprocessing|ProcessPoolExecutor", line)
        ]
        assert offenders == []


def section_texts(result):
    return [(s.title, s.content) for s in result.incident.diagnostic.sections]


class TestSectionSharing:
    """Equal section text is one object, however many reports hold it."""

    @pytest.mark.parametrize("workers", [None, 3])
    def test_incidents_over_one_window_share_their_section_text(self, workers):
        stage = build_stage()
        # One timestamp, so one window: every section renders the same text.
        alerts = [
            dataclasses.replace(
                stu.make_stream_alert(i, alert_type=stu.FLAKY_TYPE), timestamp=3600.0
            )
            for i in range(4)
        ]
        with CollectionPool(stage, workers=workers) as pool:
            results = pool.run(alerts)
        first, *rest = [section_texts(r) for r in results]
        assert len(first) == 3 and "WinSock error" in first[0][1]
        for other in rest:
            assert other == first
            for texts, other_texts in zip(first, other):
                assert all(ours is theirs for ours, theirs in zip(texts, other_texts))

    def test_a_replayed_burst_retains_one_copy_of_each_section_text(self):
        """Retention, counted: 96 alerts of simulated flash-crowd traffic.

        Alerts of one monitor slot share a window and mostly a scope, so far
        fewer distinct texts than sections come back; while the reports are
        alive no text may be held twice.
        """
        service = TransportService(seed=7)
        service.monitors.router = AlertRouter(dedup_window=120.0)
        service.warm_up(hours=0.25)
        rng = random.Random(3)
        categories = [scenario.category for scenario in TABLE1_SCENARIOS]
        forests = [forest.name for forest in service.topology.forests]
        alerts = []
        while len(alerts) < 96:
            for _ in range(3):
                service.inject(rng.choice(categories), forest=rng.choice(forests))
            alerts.extend(service.advance(120.0))
        recording = build_recording(
            [
                AlertEvent(offset=round(position * 0.002, 6), alert=alert)
                for position, alert in enumerate(alerts[:96])
            ]
        )
        clock = VirtualClock()
        copilot = RCACopilot(
            service.hub,
            model=SimulatedLLM(),
            config=PipelineConfig(collection=CollectionConfig(strict=False)),
            clock=clock,
        )
        ingestor = copilot.stream(IngestConfig(max_batch=16), clock=clock)
        try:
            replayed = BusReplayer(recording, speed=1e6).replay(ingestor)
        finally:
            ingestor.stop()
        assert len(replayed.reports) == 96 and not replayed.failures
        sections = [
            section
            for report in replayed.reports
            for section in report.collection.incident.diagnostic.sections
        ]
        for text in ("content", "title"):
            values = [getattr(section, text) for section in sections]
            assert len(set(map(id, values))) == len(set(values)) < len(sections) / 4


class TestSharedQueries:
    """The limits of a batch's shared query results."""

    @staticmethod
    def twin_alerts(count: int, alert_type: str):
        """Alerts of one type over one window: every query's key repeats."""
        return [
            dataclasses.replace(stu.make_stream_alert(i, alert_type=alert_type), timestamp=3600.0)
            for i in range(count)
        ]

    @pytest.mark.parametrize("workers", [None, 3])
    def test_a_store_write_between_identical_queries_is_seen(self, workers):
        def write_a_log(context):
            context.hub.emit_log(
                3500.0, "error", "Transport", "EXCH-01",
                f"written by {context.incident.incident_id}",
            )
            return {}

        registry = HandlerRegistry()
        registry.register(
            linear_handler(
                "StreamWriter",
                "stream-writer",
                [
                    QueryAction("before", source="error_logs"),
                    QueryAction("metrics", source="metrics", metric_names=["stream_m1"]),
                    QueryAction("write", source="script", script=write_a_log),
                    QueryAction("after", source="error_logs"),
                ],
            )
        )
        stage = build_stage(registry=registry)
        alerts = self.twin_alerts(3, "StreamWriter")
        queries = [0]
        count_hub_queries(stage.hub, queries)
        with CollectionPool(stage, workers=workers) as pool:
            results = pool.run(alerts)
        counts = [
            tuple(int(r.incident.action_output[f"{step}.error_count"]) for step in ("before", "after"))
            for r in results
        ]
        if workers is None:
            # Each alert sees every log the alerts before it wrote.
            assert counts == [(4, 5), (5, 6), (6, 7)]
        for result, (before, after) in zip(results, counts):
            assert after > before
            assert f"written by {result.incident.incident_id}" in result.incident.diagnostic.render()
        # The metrics store took no write: its query ran once for the wave
        # (serially; racing threads may each run it).
        metric_texts = {
            r.incident.diagnostic.sections[1].content for r in results
        }
        assert len(metric_texts) == 1
        if workers is None:
            # Three hub calls per log query: the first alert's two, then one
            # per later alert, whose "before" has the key of the previous
            # alert's "after" and no write since; metrics once.
            assert queries[0] == 3 * (2 + 1 + 1) + 1

    @pytest.mark.parametrize("workers", [None, 3])
    def test_a_handler_step_fault_fires_per_alert_and_is_never_reused(self, workers):
        alerts = self.twin_alerts(6, stu.FLAKY_TYPE)
        reference_stage = build_stage(strict=False)
        reference = [
            collection_fingerprint(
                reference_stage.collect(reference_stage.parse_alert(alert), EveryQueryRuns())
            )
            for alert in alerts
        ]
        # Every step fires its site, shared query or not.
        stage = build_stage(strict=False)
        counting = FaultInjector(seed=0).add(FaultConfig(site="handler.step", error=None))
        stage._executor.fault_injector = counting
        with CollectionPool(stage, workers=workers) as pool:
            results = pool.run(alerts)
        assert counting.stats_dict()["injections_handler_step"] == 3 * len(alerts)
        assert [collection_fingerprint(r.outcome) for r in results] == reference
        # A fault at one alert's query step stops that alert alone; the
        # others still query and collect what the reference collected.
        stage = build_stage(strict=False)
        failing = FaultInjector(seed=0).add(
            FaultConfig(
                site="handler.step", max_injections=1, match=lambda d: d == "flaky_metrics"
            )
        )
        stage._executor.fault_injector = failing
        with CollectionPool(stage, workers=workers) as pool:
            results = pool.run(alerts)
        fingerprints = [collection_fingerprint(r.outcome) for r in results]
        failed = [i for i, f in enumerate(fingerprints) if f[0] and f[1] == ""]
        assert len(failed) == 1 and failing.injections_total == 1
        assert all(
            fingerprint == reference[i]
            for i, fingerprint in enumerate(fingerprints)
            if i not in failed
        )

    @pytest.mark.parametrize("workers", [None, 3])
    def test_a_query_that_raised_is_not_reused(self, workers):
        stage = build_stage()
        alerts = self.twin_alerts(4, stu.SLEEPY_TYPE)
        inner = stage.hub.events.query
        calls = []

        def first_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise OSError("events backend unavailable")
            return inner(*args, **kwargs)

        stage.hub.events.query = first_call_fails
        with CollectionPool(stage, workers=workers) as pool:
            results = pool.run(alerts)
        assert sum(1 for r in results if not r.ok) == 1
        assert len(calls) >= 2
        ok = [section_texts(r) for r in results if r.ok]
        assert len(ok) == 3 and ok.count(ok[0]) == 3

    def test_threads_never_reuse_a_result_older_than_a_seen_write(self):
        """Stress: eight collect threads share a scope while logs keep arriving.

        Each alert reads the log store's write count, then queries the error
        logs.  Every seeded and written log is an ERROR inside the window,
        so an exact result counts at least as many errors as the writes the
        alert saw before it asked; a result reused past a write would not.
        """
        registry = HandlerRegistry()
        registry.register(
            linear_handler(
                "StreamRace",
                "stream-race",
                [
                    QueryAction(
                        "seen", source="script",
                        script=lambda context: {"writes": str(context.hub.logs.writes)},
                    ),
                    QueryAction("errors", source="error_logs"),
                ],
            )
        )
        stage = build_stage(registry=registry)
        alerts = self.twin_alerts(96, "StreamRace")
        done = threading.Event()

        def write_logs():
            step = 0
            while not done.is_set() and step < 100_000:
                stage.hub.emit_log(3500.0, "error", "Transport", "EXCH-02", f"race {step}")
                step += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=write_logs)
        try:
            writer.start()
            with CollectionPool(stage, workers=8) as pool:
                results = pool.run(alerts)
        finally:
            done.set()
            writer.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert all(r.ok for r in results)
        for result in results:
            output = result.incident.action_output
            assert int(output["errors.error_count"]) >= int(output["seen.writes"])
