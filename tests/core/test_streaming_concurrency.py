"""Concurrency test suite for the streaming front's collection worker pool.

Locks the serial/pooled parity contract: for identical alert streams, the
diagnosis reports, the per-alert failures, the post-feedback index state,
and the ingest counters are value-identical for ``collect_workers`` of
None, 1, and 4 (hypothesis-tested over random streams with deterministic flaky/slow
handlers).  Also covers crash containment through the ingestor, the
deterministic ``stop()`` drain, and the thread-safety of ``stats()`` under
a concurrent submit/flush storm.
"""

from __future__ import annotations

import copy
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import streamtest_utils as stu
from repro.core import (
    AutoscalePolicy,
    CollectionConfig,
    CollectionError,
    IngestConfig,
    PipelineConfig,
    RCACopilot,
)
from repro.core.errors import IngestQueueFull
from repro.handlers import HandlerRegistry
from repro.llm import SimulatedLLM
from repro.telemetry import TelemetryHub
from repro.tenancy import TenantRouter


#: collect_workers variants locked to the serial baseline.
PARITY_VARIANTS = (None, 1, 4)

#: One random stream element: (alert type, flaky marker planted?).
STREAM_ELEMENT = st.tuples(
    st.sampled_from([stu.SLEEPY_TYPE, stu.FLAKY_TYPE]), st.booleans()
)


@pytest.fixture(scope="module")
def base_copilot() -> RCACopilot:
    """One expensive indexed copilot; every run deep-copies it (~10ms)."""
    return stu.build_stream_copilot(strict=True)


def make_stream(spec):
    """Materialize a hypothesis stream spec into alerts (fresh objects)."""
    return [
        stu.make_stream_alert(index, alert_type=alert_type, flaky=flaky)
        for index, (alert_type, flaky) in enumerate(spec)
    ]


def run_stream_variant(base: RCACopilot, spec, workers):
    """Ingest the stream twice (feedback in between); return the run's telemetry.

    Wave 1 diagnoses the stream, every successful incident gets an OCE-
    confirmed label fed back, wave 2 replays the same alerts (recurrences
    that should now retrieve the fed-back incidents).  Everything returned
    is deterministic for a given spec, whatever the pool shape.
    """
    copilot = copy.deepcopy(base)
    ingestor = copilot.stream(stu.ingest_config(workers))
    try:
        futures1 = ingestor.submit_many(make_stream(spec))
        ingestor.flush()
        reports1, failures1 = stu.drain_futures(futures1)
        fed_ids = []
        for position in sorted(reports1):
            incident = futures1[position].result().incident
            ingestor.record_feedback(incident, f"ConfirmedCategory{position % 3}")
            fed_ids.append(incident.incident_id)
        futures2 = ingestor.submit_many(make_stream(spec))
        ingestor.flush()
        reports2, failures2 = stu.drain_futures(futures2)
        return {
            "reports1": reports1,
            "failures1": failures1,
            "reports2": reports2,
            "failures2": failures2,
            "index_state": stu.index_state(copilot, fed_ids),
            "stats": ingestor.stats(),
        }
    finally:
        ingestor.stop()


class TestSerialPooledParity:
    def test_pooled_flush_matches_observe_many(self, base_copilot):
        """The pooled two-phase path equals the plain batch path exactly."""
        spec = [(stu.SLEEPY_TYPE, False), (stu.FLAKY_TYPE, False)] * 3
        direct = copy.deepcopy(base_copilot)
        expected = [
            stu.report_fingerprint(r) for r in direct.observe_many(make_stream(spec))
        ]
        pooled = copy.deepcopy(base_copilot)
        ingestor = pooled.stream(stu.ingest_config(4))
        try:
            futures = ingestor.submit_many(make_stream(spec))
            reports = ingestor.flush()
            assert [stu.report_fingerprint(r) for r in reports] == expected
            assert [
                stu.report_fingerprint(f.result(timeout=30.0)) for f in futures
            ] == expected
        finally:
            ingestor.stop()

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=st.lists(STREAM_ELEMENT, min_size=1, max_size=10))
    def test_parity_across_pool_shapes(self, base_copilot, spec):
        """Reports, failures, feedback effects, and stats match the serial run."""
        baseline = None
        for workers in PARITY_VARIANTS:
            run = run_stream_variant(base_copilot, spec, workers)
            if baseline is None:
                baseline = run
            else:
                assert run == baseline

    @pytest.mark.slow
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=st.lists(STREAM_ELEMENT, min_size=1, max_size=24))
    def test_parity_soak(self, base_copilot, spec):
        """Nightly: the same property over longer streams and more examples."""
        baseline = None
        for workers in PARITY_VARIANTS:
            run = run_stream_variant(base_copilot, spec, workers)
            if baseline is None:
                baseline = run
            else:
                assert run == baseline


#: pipeline_depth variants locked to the barrier run.
PIPELINE_VARIANTS = (1, 2, 3)

#: One pipeline-parity stream element over the clock-driven handlers.
PIPELINE_STREAM_ELEMENT = st.tuples(
    st.sampled_from([stu.BUSY_TYPE, stu.IDLE_TYPE, stu.FLAKY_TYPE]), st.booleans()
)

#: Idle, busy, idle: after pass 1's feedback the index holds two idle
#: incidents with the same text and day — twins whose scores tie — around a
#: third, so retrieval reaches the insertion-sequence tie-break.
TWIN_SANDWICH = [(stu.IDLE_TYPE, False), (stu.BUSY_TYPE, False), (stu.IDLE_TYPE, False)]


def run_pipeline_variant(base: RCACopilot, spec, workers, depth, grouped):
    """One pipelined (or barrier) run under a FakeClock — zero real sleeps.

    The virtual-I/O handler advances the installed FakeClock instead of
    sleeping, so "collect time" is exact and virtual.  ``grouped`` picks the
    flush pattern: False submits the whole stream then flushes once (the
    flush dequeues ``max_batch``-sized waves, so pipelined variants
    genuinely overlap collect k+1 with predict k); True submits and flushes
    wave by wave.  Same two-pass feedback protocol as
    :func:`run_stream_variant`.  Returns the run's fingerprint, the copilot
    it ran on and the second pass's diagnosed incidents.
    """
    clock = stu.FakeClock()
    stu.VIRTUAL_IO["clock"] = clock
    copilot = copy.deepcopy(base)
    ingestor = copilot.stream(
        stu.ingest_config(workers, max_batch=3, pipeline_depth=depth),
        clock=clock,
    )
    try:

        def ingest_pass(alerts):
            futures = []
            if grouped:
                for start in range(0, len(alerts), 3):
                    futures.extend(ingestor.submit_many(alerts[start : start + 3]))
                    ingestor.flush()
            else:
                futures.extend(ingestor.submit_many(alerts))
                ingestor.flush()
            return futures

        futures1 = ingest_pass(make_stream(spec))
        reports1, failures1 = stu.drain_futures(futures1)
        fed_ids = []
        for position in sorted(reports1):
            incident = futures1[position].result().incident
            ingestor.record_feedback(incident, f"ConfirmedCategory{position % 3}")
            fed_ids.append(incident.incident_id)
        futures2 = ingest_pass(make_stream(spec))
        reports2, failures2 = stu.drain_futures(futures2)
        run = {
            "reports1": reports1,
            "failures1": failures1,
            "reports2": reports2,
            "failures2": failures2,
            "index_state": stu.index_state(copilot, fed_ids),
            "stats": ingestor.stats(),
        }
        wave = [futures2[position].result().incident for position in sorted(reports2)]
        return run, copilot, wave
    finally:
        ingestor.stop()
        stu.VIRTUAL_IO["clock"] = None


class TestPipelineParity:
    """The pipelined ingest path is value-identical to barrier execution."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.lists(PIPELINE_STREAM_ELEMENT, min_size=1, max_size=10),
        workers=st.sampled_from([None, 2]),
        grouped=st.booleans(),
    )
    @example(spec=TWIN_SANDWICH, workers=None, grouped=False)
    def test_pipelined_matches_barrier(self, base_copilot, spec, workers, grouped):
        """Reports, failures, feedback effects, and IngestStats all match.

        Every pipeline_depth variant — barrier, double- and triple-buffered —
        must produce byte-identical fingerprints over random streams of
        clock-driven, idle, and flaky alerts, under both serial and pooled
        collection and both flush patterns, with handler failures included.
        """
        baseline = None
        for depth in PIPELINE_VARIANTS:
            run = run_pipeline_variant(base_copilot, spec, workers, depth, grouped)[0]
            if baseline is None:
                baseline = run
            else:
                assert run == baseline

    # On unsnapped vectors a 1-row gemv and a gemm round differently, and on
    # the sandwich INC-LIVE-000002 scored 0.2827325343913738 in the batch
    # and ...736 alone.  On the 2^-20 grid the product is exact, so the
    # batch shape cannot show in a bit.
    def test_batch_retrieval_matches_single_queries(self, base_copilot):
        """After pass 1 and feedback, a wave retrieves as its queries alone do."""
        _, copilot, wave = run_pipeline_variant(
            base_copilot, TWIN_SANDWICH, workers=None, depth=1, grouped=False
        )

        def fingerprint(demonstrations):
            return [(d.incident_id, float(d.similarity).hex()) for d in demonstrations]

        batch = [fingerprint(d) for d in copilot.prediction.retrieve_many(wave)]
        alone = [fingerprint(copilot.prediction.retrieve(incident)) for incident in wave]
        assert batch == alone


class TestCrashContainment:
    @pytest.mark.parametrize("workers", [None, 4])
    def test_worker_failure_fails_only_its_future(self, base_copilot, workers):
        copilot = copy.deepcopy(base_copilot)
        ingestor = copilot.stream(stu.ingest_config(workers))
        try:
            flaky_positions = {1, 3}
            alerts = [
                stu.make_stream_alert(
                    i, alert_type=stu.FLAKY_TYPE, flaky=(i in flaky_positions)
                )
                for i in range(5)
            ]
            futures = ingestor.submit_many(alerts)
            reports = ingestor.flush()
            # The batch still predicted: every non-flaky alert has a report.
            assert len(reports) == len(alerts) - len(flaky_positions)
            for position, future in enumerate(futures):
                if position in flaky_positions:
                    with pytest.raises(CollectionError, match="simulated telemetry outage"):
                        future.result(timeout=30.0)
                else:
                    assert future.result(timeout=30.0).predicted_label
            stats = ingestor.stats()
            assert stats.processed == len(alerts)
            assert stats.collect_failures == len(flaky_positions)
            # The pool survives for the next wave.
            wave2 = ingestor.submit_many(
                [stu.make_stream_alert(100 + i) for i in range(3)]
            )
            ingestor.flush()
            assert all(f.result(timeout=30.0).predicted_label for f in wave2)
            assert ingestor.stats().collect_failures == len(flaky_positions)
        finally:
            ingestor.stop()

    def test_failure_callback_may_reenter_ingestor(self, base_copilot):
        """Futures are resolved outside the ingestion lock.

        A done-callback that re-enters the ingestor (here: record_feedback,
        which takes the same lock as batch processing) must not deadlock the
        flushing thread — regression for failure futures being resolved
        while the lock was still held.
        """
        copilot = copy.deepcopy(base_copilot)
        ingestor = copilot.stream(stu.ingest_config(2))
        try:
            flaky = stu.make_stream_alert(0, alert_type=stu.FLAKY_TYPE, flaky=True)
            future = ingestor.submit(flaky)
            incident = copilot.history.all()[0]
            reentered = []

            def callback(resolved):
                ingestor.record_feedback(incident, "CallbackConfirmed")
                reentered.append(True)

            future.add_done_callback(callback)
            ingestor.flush()  # deadlocks here if failures resolve under the lock
            assert reentered == [True]
            with pytest.raises(CollectionError):
                future.result(timeout=0)
            assert copilot.history.get(incident.incident_id).category == "CallbackConfirmed"
        finally:
            ingestor.stop()

    def test_collect_metrics_reach_hub(self, base_copilot):
        copilot = copy.deepcopy(base_copilot)
        ingestor = copilot.stream(stu.ingest_config(4))
        try:
            ingestor.submit_many([stu.make_stream_alert(i) for i in range(4)])
            ingestor.flush()
        finally:
            ingestor.stop()
        names = copilot.hub.metrics.metric_names()
        for suffix in (
            "collect_pool_size",
            "collect_seconds",
            "predict_seconds",
            "collect_utilization",
            "collect_failures",
        ):
            assert f"rcacopilot.ingest.{suffix}" in names
        latest = copilot.hub.metrics.latest(
            "rcacopilot.ingest.collect_pool_size", "stream-ingestor"
        )
        assert latest == 4.0
        utilization = copilot.hub.metrics.latest(
            "rcacopilot.ingest.collect_utilization", "stream-ingestor"
        )
        assert 0.0 <= utilization <= 1.0


def cheap_copilot() -> RCACopilot:
    """A collection-only copilot (no handlers, no index) for soak tests."""
    return stu.build_stream_copilot(
        strict=False, registry=HandlerRegistry(), with_history=False
    )


def cheap_router(ingest: IngestConfig) -> TenantRouter:
    """A collection-only tenant router (no handlers, no indexes) for soaks."""
    return TenantRouter(
        TelemetryHub(),
        registry=HandlerRegistry(),
        model=SimulatedLLM(),
        config=PipelineConfig(collection=CollectionConfig(strict=False)),
        ingest=ingest,
    )


class TestStopDrain:
    def test_alert_enqueued_after_final_poll_is_not_dropped(self):
        """White-box regression for the stop() race.

        The worker exits on its first empty poll after the stop signal; an
        alert submitted *after* that exit but *before* ``stop()`` finishes
        must still be processed by the deterministic drain.
        """
        ingestor = cheap_copilot().stream(
            IngestConfig(max_batch=4, max_latency_seconds=0.01)
        ).start()
        ingestor._stopping.set()
        assert ingestor._worker is not None
        ingestor._worker.join(timeout=30.0)
        assert not ingestor._worker.is_alive()
        late = ingestor.submit(stu.make_stream_alert(0))
        ingestor.stop()
        assert late.done()
        assert late.result(timeout=0).incident.incident_id
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == 1

    def test_stop_with_pending_resize_strands_nothing_and_leaks_no_threads(self):
        """Regression: stop() while a scale event left the pool executor-less.

        A shrink retires the executor and defers the rebuild to the next
        wave; alerts queued behind that pending rebuild must still be
        drained by stop(), and close() must join the retired executor so no
        collection worker thread survives the ingestor.
        """
        clock = stu.FakeClock()
        config = IngestConfig(
            max_batch=2,
            max_latency_seconds=5.0,
            collect_workers=2,
            collect_workers_min=1,
            collect_workers_max=4,
            autoscale=AutoscalePolicy(
                high_utilization=0.9,
                low_utilization=0.5,
                ewma_alpha=1.0,
                hysteresis_batches=1,
                cooldown_seconds=0.0,
                burst_queue_factor=None,
            ),
        )
        ingestor = cheap_copilot().stream(config, clock=clock)
        # Two idle batches, utilization exactly 0.0 under the fake clock:
        # the first accumulates the low streak (shrink refused, backlog),
        # the second shrinks 2 -> 1, retiring the thread executor with the
        # rebuild deferred to the next wave.
        warm = ingestor.submit_many([stu.make_stream_alert(i) for i in range(4)])
        ingestor.flush()
        assert all(f.done() for f in warm)
        pool = ingestor._collect_pool
        assert pool.workers == 1  # shrink happened
        assert pool._executor is None  # ...and the rebuild is still pending
        assert pool._retired  # the old executor is awaiting its join
        # Queue more alerts behind the pending rebuild, then stop: the
        # drain must rebuild the pool, process everything, and close() must
        # leave zero collection threads behind.
        late = ingestor.submit_many([stu.make_stream_alert(10 + i) for i in range(3)])
        ingestor.stop()
        assert all(f.done() for f in late)
        assert all(f.result(timeout=0).incident.incident_id for f in late)
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == 7
        assert pool._executor is None and pool._retired == []
        assert not [
            t for t in threading.enumerate() if t.name.startswith("rcacopilot-collect")
        ]

    def test_stop_races_autoscaled_background_worker(self):
        """stop() racing live resizes must neither strand alerts nor leak.

        The background worker flushes micro-batches whose every boundary
        may resize the pool (aggressive policy, zero cooldown); stopping
        mid-stream exercises the drain against whatever resize state the
        race produced.  Nondeterministic by design — the invariants must
        hold for every interleaving.
        """
        config = IngestConfig(
            max_batch=4,
            max_latency_seconds=0.005,
            collect_workers=2,
            collect_workers_min=1,
            collect_workers_max=4,
            autoscale=AutoscalePolicy(
                high_utilization=0.6,
                low_utilization=0.5,
                ewma_alpha=1.0,
                hysteresis_batches=1,
                cooldown_seconds=0.0,
                burst_queue_factor=1.5,
            ),
        )
        ingestor = cheap_copilot().stream(config).start()
        futures = ingestor.submit_many([stu.make_stream_alert(i) for i in range(40)])
        ingestor.stop()  # races the worker mid-batch and mid-resize
        assert all(f.done() for f in futures)
        assert all(f.result(timeout=0) is not None for f in futures)
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == 40
        assert not [
            t for t in threading.enumerate() if t.name.startswith("rcacopilot-collect")
        ]

    def test_stop_during_inflight_prediction_drains_deterministically(self):
        """stop() while a prediction is mid-flight on the pipeline lane.

        A GateModel holds the wave's prediction at a known point; stop()
        is issued from another thread while the prediction is parked, the
        gate is then released, and the drain must finish with no stranded
        futures, both the collection pool and the prediction executor
        closed, and post-stop flush() still working.
        """
        model = stu.GateModel()
        copilot = stu.build_stream_copilot(model=model)
        ingestor = copilot.stream(
            stu.ingest_config(2, max_batch=4, pipeline_depth=2)
        ).start()
        try:
            model.close()
            futures = ingestor.submit_many([stu.make_stream_alert(i) for i in range(4)])
            assert model.entered.wait(timeout=30.0)  # prediction is in flight
            stopper = threading.Thread(target=ingestor.stop)
            stopper.start()
            model.open()
            stopper.join(timeout=30.0)
            assert not stopper.is_alive()
            # No stranded futures: every alert resolved by the drain.
            assert all(f.done() for f in futures)
            assert all(f.result(timeout=0).predicted_label for f in futures)
            # Both executors are gone and no pipeline thread survives.
            assert ingestor._predict_executor is None
            assert not [
                t
                for t in threading.enumerate()
                if t.name.startswith("rcacopilot-predict")
                or t.name.startswith("rcacopilot-collect")
            ]
            # Post-stop manual use still works (lanes lazily recreated).
            late = ingestor.submit(stu.make_stream_alert(99))
            ingestor.flush()
            assert late.result(timeout=0).predicted_label
            stats = ingestor.stats()
            assert stats.processed == stats.submitted == 5
        finally:
            ingestor.stop()

    def test_stop_races_concurrent_producer_without_losing_alerts(self):
        total = 40
        ingestor = cheap_copilot().stream(
            IngestConfig(max_batch=8, max_latency_seconds=0.005)
        ).start()
        futures = []

        def produce():
            for index in range(total):
                futures.append(ingestor.submit(stu.make_stream_alert(index)))

        producer = threading.Thread(target=produce)
        producer.start()
        time.sleep(0.01)
        ingestor.stop()  # races the producer; must neither hang nor drop
        producer.join(timeout=30.0)
        assert not producer.is_alive()
        ingestor.flush()  # mop up anything submitted after stop() returned
        assert len(futures) == total
        for future in futures:
            assert future.result(timeout=30.0) is not None
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == total


class TestStatsUnderConcurrency:
    def test_stats_snapshots_stay_consistent_under_storm(self):
        """Satellite regression: hammer stats() while submit/flush mutate.

        Every snapshot must satisfy the counter invariants — in particular
        ``processed <= submitted``, which only holds because ``submit``
        counts the submission *before* enqueueing — and iterating the
        snapshot (``as_dict``) must never race the live flush-reason dict.
        """
        per_producer, producers = 30, 2
        total = per_producer * producers
        ingestor = cheap_copilot().stream(
            IngestConfig(max_batch=4, max_latency_seconds=0.001)
        ).start()
        stop_reading = threading.Event()
        violations = []

        def read_loop():
            while not stop_reading.is_set():
                snapshot = ingestor.stats()
                flat = ingestor.stats_dict()
                if snapshot.processed > snapshot.submitted:
                    violations.append(
                        f"processed {snapshot.processed} > submitted {snapshot.submitted}"
                    )
                if sum(snapshot.flush_reasons.values()) != snapshot.batches:
                    violations.append(
                        f"flush reasons {snapshot.flush_reasons} != batches {snapshot.batches}"
                    )
                if flat["processed"] > flat["submitted"]:
                    violations.append("flat snapshot processed > submitted")

        def produce(offset):
            for index in range(per_producer):
                ingestor.submit(stu.make_stream_alert(offset + index))

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        writers = [
            threading.Thread(target=produce, args=(i * per_producer,))
            for i in range(producers)
        ]
        for thread in readers + writers:
            thread.start()
        try:
            for thread in writers:
                thread.join(timeout=60.0)
            ingestor.stop()
        finally:
            stop_reading.set()
            for thread in readers:
                thread.join(timeout=30.0)
        assert not violations, violations[:5]
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == total
        assert sum(stats.flush_reasons.values()) == stats.batches

    def test_submit_many_bursts_keep_snapshots_consistent(self):
        """Satellite regression: the bulk enqueue counts the burst atomically.

        ``submit_many`` books the whole burst's ``submitted`` under one
        stats-lock acquisition *before* enqueueing anything, so a reader
        racing the background worker must never observe
        ``processed > submitted`` — not even transiently mid-burst.
        """
        burst, bursts, producers = 6, 5, 2
        total = burst * bursts * producers
        ingestor = cheap_copilot().stream(
            IngestConfig(max_batch=4, max_latency_seconds=0.001)
        ).start()
        stop_reading = threading.Event()
        violations = []

        def read_loop():
            while not stop_reading.is_set():
                snapshot = ingestor.stats()
                if snapshot.processed > snapshot.submitted:
                    violations.append(
                        f"processed {snapshot.processed} > submitted {snapshot.submitted}"
                    )
                if sum(snapshot.flush_reasons.values()) != snapshot.batches:
                    violations.append("flush reasons out of step with batches")

        def produce(offset):
            for index in range(bursts):
                base = offset + index * burst
                ingestor.submit_many(
                    [stu.make_stream_alert(base + i) for i in range(burst)]
                )

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        writers = [
            threading.Thread(target=produce, args=(i * burst * bursts,))
            for i in range(producers)
        ]
        for thread in readers + writers:
            thread.start()
        try:
            for thread in writers:
                thread.join(timeout=60.0)
            ingestor.stop()
        finally:
            stop_reading.set()
            for thread in readers:
                thread.join(timeout=30.0)
        assert not violations, violations[:5]
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == total

    def test_per_tenant_snapshots_stay_consistent_under_storm(self):
        """Satellite regression: the tenant-scoped view of the same storm.

        Two producers each hammer their *own* tenant of a
        :class:`TenantRouter` while readers take per-tenant snapshots; the
        counter invariants must hold inside every tenant's view — not just
        in the global rollup — which requires the per-tenant counters to
        move under the same stats lock as the global ones.
        """
        per_producer, tenants = 30, ("alpha", "beta")
        router = cheap_router(
            IngestConfig(max_batch=4, max_latency_seconds=0.001)
        )
        for tenant in tenants:
            router.register(tenant)
        router.start()
        stop_reading = threading.Event()
        violations = []

        def read_loop():
            while not stop_reading.is_set():
                for tenant in tenants:
                    snapshot = router.tenant_stats(tenant)
                    if snapshot.processed > snapshot.submitted:
                        violations.append(
                            f"{tenant}: processed {snapshot.processed} > "
                            f"submitted {snapshot.submitted}"
                        )
                flat = router.tenant_stats_dict()
                for tenant, stats in flat.items():
                    if stats["processed"] > stats["submitted"]:
                        violations.append(f"{tenant}: flat processed > submitted")

        def produce(tenant, offset):
            for index in range(per_producer):
                router.submit(stu.make_stream_alert(offset + index), tenant=tenant)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        writers = [
            threading.Thread(target=produce, args=(tenant, i * per_producer))
            for i, tenant in enumerate(tenants)
        ]
        for thread in readers + writers:
            thread.start()
        try:
            for thread in writers:
                thread.join(timeout=60.0)
            router.stop()
        finally:
            stop_reading.set()
            for thread in readers:
                thread.join(timeout=30.0)
        assert not violations, violations[:5]
        for tenant in tenants:
            stats = router.tenant_stats(tenant)
            assert stats.processed == stats.submitted == per_producer
            assert sum(stats.flush_reasons.values()) == stats.batches
        global_stats = router.stats()
        assert global_stats.processed == per_producer * len(tenants)

    def test_submit_many_rollback_race_under_load_shed(self):
        """Satellite regression: the queue.Full rollback races a live drainer.

        ``submit_many`` books the whole burst up front, then rolls the
        un-enqueued remainder back when the bounded queue overflows
        mid-burst (``block_when_full=False``).  With the background worker
        draining concurrently, every interleaving must keep
        ``processed <= submitted`` in every snapshot, the rollback must
        land exactly (final submitted == alerts actually enqueued), and
        the :class:`IngestQueueFull` exception must carry a resolvable
        futures prefix for what did get in.
        """
        burst, bursts, producers = 6, 8, 2
        ingestor = cheap_copilot().stream(
            IngestConfig(
                max_batch=4,
                max_latency_seconds=0.001,
                queue_capacity=5,  # < burst, so mid-burst overflow is common
                block_when_full=False,
            )
        ).start()
        stop_reading = threading.Event()
        violations = []
        accepted_futures = []
        futures_lock = threading.Lock()

        def read_loop():
            while not stop_reading.is_set():
                snapshot = ingestor.stats()
                if snapshot.processed > snapshot.submitted:
                    violations.append(
                        f"processed {snapshot.processed} > submitted {snapshot.submitted}"
                    )
                if sum(snapshot.flush_reasons.values()) != snapshot.batches:
                    violations.append("flush reasons out of step with batches")

        def produce(offset):
            for index in range(bursts):
                base = offset + index * burst
                alerts = [stu.make_stream_alert(base + i) for i in range(burst)]
                try:
                    futures = ingestor.submit_many(alerts)
                except IngestQueueFull as exc:
                    # The enqueued prefix is carried on the exception, in
                    # submission order, and stays resolvable.
                    assert len(exc.enqueued) < len(alerts)
                    futures = exc.enqueued
                with futures_lock:
                    accepted_futures.extend(futures)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        writers = [
            threading.Thread(target=produce, args=(i * burst * bursts,))
            for i in range(producers)
        ]
        for thread in readers + writers:
            thread.start()
        try:
            for thread in writers:
                thread.join(timeout=60.0)
            ingestor.stop()
        finally:
            stop_reading.set()
            for thread in readers:
                thread.join(timeout=30.0)
        assert not violations, violations[:5]
        # Every accepted alert (full bursts + load-shed prefixes) resolved.
        for future in accepted_futures:
            assert future.result(timeout=30.0).incident.incident_id
        stats = ingestor.stats()
        # The rollback landed exactly: only accepted alerts stayed counted.
        assert stats.submitted == len(accepted_futures)
        assert stats.processed == stats.submitted

    @pytest.mark.slow
    def test_background_pooled_soak(self, base_copilot):
        """Nightly: background worker + 4 collect workers under a long burst."""
        copilot = copy.deepcopy(base_copilot)
        config = IngestConfig(
            max_batch=8, max_latency_seconds=0.005, collect_workers=4
        )
        total = 200
        with copilot.stream(config) as ingestor:
            futures = [
                ingestor.submit(
                    stu.make_stream_alert(
                        i,
                        alert_type=(stu.FLAKY_TYPE if i % 7 == 3 else stu.SLEEPY_TYPE),
                        flaky=(i % 14 == 3),
                    )
                )
                for i in range(total)
            ]
            resolved = 0
            for future in futures:
                try:
                    future.result(timeout=120.0)
                except CollectionError:
                    pass
                resolved += 1
        assert resolved == total
        stats = ingestor.stats()
        assert stats.processed == stats.submitted == total
        assert stats.collect_failures == sum(
            1 for i in range(total) if i % 14 == 3
        )
