"""Tests for the streaming micro-batch ingestion front.

Covers the ingestion contract: a continuous alert stream is grouped into
micro-batches automatically (an idle worker takes what is queued at once,
batches form while it is busy, full batches cut on size; bounded queue with
backpressure or load-shed), results flow back through futures, queue/flush
statistics are read from the ingestor and never written into the telemetry
hub it diagnoses, and OCE feedback recorded mid-stream is visible to the
very next micro-batch, with a fixed shard window and an
auto-selected one.
"""

from __future__ import annotations

import copy
import time

import pytest

import streamtest_utils as stu
from repro.cloudsim import TransportService
from repro.core import (
    IndexConfig,
    IngestConfig,
    IngestQueueFull,
    PipelineConfig,
    RCACopilot,
    StreamIngestor,
    VirtualClock,
)
from repro.datagen import generate_corpus
from repro.embedding import FastTextConfig, FastTextEmbedder


FAULTS = ("HubPortExhaustion", "DeliveryHang", "FullDisk", "CodeRegression")


@pytest.fixture(scope="module")
def stream_service():
    service = TransportService(seed=404)
    service.warm_up(hours=1.0)
    return service


@pytest.fixture(scope="module")
def alert_feed(stream_service):
    """A deterministic list of real monitor alerts to replay through ingestors."""
    alerts = []
    for round_index in range(3):
        for fault in FAULTS:
            outcome = stream_service.inject_and_detect(fault)
            if outcome.primary_alert is not None:
                alerts.append(outcome.primary_alert)
    assert len(alerts) >= 6
    return alerts


def stream_history():
    return generate_corpus(
        total_incidents=60, total_categories=18, seed=5, duration_days=90.0
    )


@pytest.fixture(scope="module")
def build_copilot():
    """``build_copilot(stream_service, window_days=20.0)``: a freshly indexed copilot.

    The default-size FastText model is fitted once for the module, on the
    texts ``PredictionStage.index_history`` would fit on; every copilot gets
    its own deep copy with ``fit`` taken away, as in
    ``test_index_backends.py::fitted``.  That fit was nearly the whole cost of
    each of the sixteen builds below.
    """
    model = FastTextEmbedder(FastTextConfig()).fit(
        [i.diagnostic_info() or i.alert_info() for i in stream_history().labelled()]
    )

    def build(stream_service, window_days=20.0):
        config = PipelineConfig(index=IndexConfig(window_days=window_days))
        copilot = RCACopilot(stream_service.hub, config=config)
        copilot.prediction.embedder = stu.FittedEmbedder(copy.deepcopy(model))
        copilot.index_history(stream_history())
        return copilot

    return build


class TestManualFlush:
    def test_flush_matches_diagnose_many(
        self, build_copilot, stream_service, alert_feed
    ):
        streamed = build_copilot(stream_service)
        direct = build_copilot(stream_service)
        ingestor = streamed.stream(IngestConfig(max_batch=64, max_latency_seconds=1.0))
        futures = ingestor.submit_many(alert_feed[:6])
        reports = ingestor.flush()
        expected = direct.diagnose_many(
            [direct.collection.parse_alert(alert) for alert in alert_feed[:6]]
        )
        assert [r.predicted_label for r in reports] == [
            r.predicted_label for r in expected
        ]
        assert all(future.done() for future in futures)
        assert [future.result().predicted_label for future in futures] == [
            r.predicted_label for r in expected
        ]

    def test_flush_respects_max_batch(self, build_copilot, stream_service, alert_feed):
        copilot = build_copilot(stream_service)
        ingestor = copilot.stream(IngestConfig(max_batch=2, max_latency_seconds=1.0))
        ingestor.submit_many(alert_feed[:5])
        assert ingestor.queue_depth == 5
        reports = ingestor.flush()
        assert len(reports) == 5
        stats = ingestor.stats()
        assert stats.batches == 3  # 2 + 2 + 1
        assert stats.flush_reasons["manual"] == 3
        assert stats.max_queue_depth >= 5
        assert ingestor.queue_depth == 0

    def test_empty_flush_is_noop(self, build_copilot, stream_service):
        ingestor = build_copilot(stream_service).stream()
        assert ingestor.flush() == []


class TestBackgroundWorker:
    def test_size_triggered_flush(self, build_copilot, stream_service, alert_feed):
        copilot = build_copilot(stream_service)
        ingestor = copilot.stream(
            IngestConfig(max_batch=2, max_latency_seconds=5.0)
        )
        with ingestor:
            futures = ingestor.submit_many(alert_feed[:4])
            labels = [future.result(timeout=30.0) for future in futures]
        assert all(report.predicted_label for report in labels)
        assert ingestor.stats().flush_reasons["size"] >= 1

    def test_idle_worker_takes_a_lone_alert_at_once(
        self, build_copilot, stream_service, alert_feed
    ):
        """Work-conserving flush: an idle worker never waits for company.

        ``max_batch=1000`` and a five-minute ``max_latency_seconds`` would
        have parked the alert on a timer; the worker instead finds the
        queue drained, cuts on ``"idle"`` and resolves it with virtual time
        exactly where it started.
        """
        copilot = build_copilot(stream_service)
        clock = stu.FakeClock()
        ingestor = copilot.stream(
            IngestConfig(max_batch=1000, max_latency_seconds=300.0), clock=clock
        )
        try:
            future = ingestor.submit(alert_feed[0])
            ingestor.start()
            assert future.result(timeout=30.0).predicted_label
            clock.wait_for_sleepers(1)  # back on the empty queue: stats folded
            assert clock.monotonic() == 0.0
            stats = ingestor.stats()
            assert stats.flush_reasons == {
                "size": 0, "latency": 0, "manual": 0, "idle": 1
            }
            assert stats.batches == stats.last_flush_size == 1
        finally:
            ingestor.stop()

    def test_submit_wakes_a_worker_parked_on_a_virtual_clock(
        self, build_copilot, stream_service, alert_feed
    ):
        """``submit`` is a burst of one through ``submit_many``, so it wakes a
        worker parked on a virtual clock exactly as a burst does; nothing
        advances the clock here, so an unwoken worker would never resolve
        the future."""
        copilot = build_copilot(stream_service)
        clock = VirtualClock()
        ingestor = copilot.stream(
            IngestConfig(max_batch=1000, max_latency_seconds=300.0), clock=clock
        )
        try:
            ingestor.start()
            clock.wait_for_sleepers(1)  # parked on the empty queue
            future = ingestor.submit(alert_feed[0])
            assert future.result(timeout=10.0).predicted_label
            assert clock.monotonic() == 0.0
        finally:
            ingestor.stop()

    @pytest.mark.parametrize("arrivals,waves", [(2, [1, 2]), (3, [1, 3]), (5, [1, 3, 2])])
    def test_batches_form_while_the_worker_is_busy(self, arrivals, waves):
        """Alerts arriving during a wave ride together in the next one.

        The first alert's handler parks in virtual I/O, holding the worker
        busy while ``arrivals`` more are submitted; when the I/O completes
        the next wave is exactly ``min(arrivals, max_batch)`` alerts and the
        rest follow — batching comes from service time, not from a timer.
        """
        clock = stu.FakeClock()
        copilot = stu.build_stream_copilot(with_history=False)
        ingestor = copilot.stream(
            IngestConfig(max_batch=3, max_latency_seconds=300.0), clock=clock
        )
        sizes = stu.record_flush_sizes(ingestor)
        try:
            stu.run_waves_behind_a_busy_worker(ingestor, clock, arrivals)
            assert sizes == waves
            assert clock.monotonic() == 0.05
            full = waves.count(3)
            assert ingestor.stats().flush_reasons == {
                "size": full, "latency": 0, "manual": 0, "idle": len(waves) - full
            }
        finally:
            ingestor.stop()

    def test_cancelled_future_does_not_kill_the_worker(
        self, build_copilot, stream_service, alert_feed
    ):
        """A future cancelled while queued is dropped; the stream keeps flowing."""
        copilot = build_copilot(stream_service)
        ingestor = copilot.stream(IngestConfig(max_batch=8, max_latency_seconds=1.0))
        doomed = ingestor.submit(alert_feed[0])
        survivor = ingestor.submit(alert_feed[1])
        assert doomed.cancel()
        reports = ingestor.flush()
        assert len(reports) == 1
        assert survivor.result(timeout=1.0).predicted_label
        assert doomed.cancelled()
        # The ingestor is still fully operational after the cancellation.
        follow_up = ingestor.submit(alert_feed[2])
        ingestor.flush()
        assert follow_up.result(timeout=1.0).predicted_label

    def test_stop_while_parked_on_an_empty_queue_terminates(
        self, build_copilot, stream_service, alert_feed
    ):
        """Regression: stop() must unpark a worker a fake clock would hold.

        The worker's only wait is the stop poll on an empty queue; on a
        FakeClock nobody advances, that park never expires by itself, so
        stop() has to wake it — and the worker must then see the stop signal
        before parking again, or join() never returns.  An alert submitted
        while it was parked wakes it, and the worker parks again once the
        alert is done.
        """
        copilot = build_copilot(stream_service)
        clock = stu.FakeClock()
        ingestor = copilot.stream(
            IngestConfig(max_batch=1000, max_latency_seconds=60.0), clock=clock
        )
        ingestor.start()
        clock.wait_for_sleepers(1)  # parked in the (virtual) stop poll
        future = ingestor.submit(alert_feed[0])
        future.result(timeout=10.0)
        clock.wait_for_sleepers(1)  # parked again
        ingestor.stop()  # deadlocks here without the stop-signal guard
        assert future.done()
        assert future.result(timeout=0).predicted_label
        assert ingestor.stats().processed == 1
        assert clock.monotonic() == 0.0

    def test_real_clock_stop_returns_within_a_poll(self):
        """The stop poll (50 ms) does not follow ``max_latency_seconds``."""
        ingestor = stu.build_stream_copilot(with_history=False).stream(
            IngestConfig(max_batch=1000, max_latency_seconds=300.0)
        )
        ingestor.start()
        started = time.monotonic()
        ingestor.stop()
        # One poll is 50 ms; the bound only has to tell it from 300 s.
        assert time.monotonic() - started < 5.0

    def test_stop_flushes_remainder(self, build_copilot, stream_service, alert_feed):
        copilot = build_copilot(stream_service)
        ingestor = copilot.stream(IngestConfig(max_batch=64, max_latency_seconds=10.0))
        futures = ingestor.submit_many(alert_feed[:3])
        ingestor.stop()  # worker never started; stop() still drains the queue
        assert all(future.done() for future in futures)
        assert ingestor.stats().processed == 3


class TestBoundedQueue:
    def test_load_shed_raises_when_full(
        self, build_copilot, stream_service, alert_feed
    ):
        copilot = build_copilot(stream_service)
        ingestor = StreamIngestor(
            copilot,
            IngestConfig(
                max_batch=4,
                max_latency_seconds=1.0,
                queue_capacity=2,
                block_when_full=False,
            ),
        )
        ingestor.submit(alert_feed[0])
        ingestor.submit(alert_feed[1])
        with pytest.raises(IngestQueueFull):
            ingestor.submit(alert_feed[2])
        ingestor.flush()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(max_batch=0)
        with pytest.raises(ValueError):
            IngestConfig(max_latency_seconds=0.0)
        with pytest.raises(ValueError):
            IngestConfig(queue_capacity=-1)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            pytest.param({"max_batch": 0}, "max_batch", id="max_batch"),
            pytest.param(
                {"max_latency_seconds": -1.0}, "max_latency_seconds", id="max_latency"
            ),
            pytest.param({"queue_capacity": 0}, "queue_capacity", id="queue_capacity"),
            pytest.param({"collect_workers": 0}, "collect_workers", id="collect_workers"),
            pytest.param({"pipeline_depth": 0}, "pipeline_depth", id="pipeline_depth"),
        ],
    )
    def test_each_rule_names_the_field_it_guards(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            IngestConfig(**kwargs)


class TestSelfMetricsStayOut:
    def test_queue_and_flush_stats_are_read_from_the_ingestor(
        self, build_copilot, stream_service, alert_feed
    ):
        copilot = build_copilot(stream_service)
        ingestor = copilot.stream(IngestConfig(max_batch=4, max_latency_seconds=1.0))
        ingestor.submit_many(alert_feed[:4])
        ingestor.flush()
        flat = ingestor.stats_dict()
        for suffix, value in (
            ("submitted", 4.0),
            ("max_queue_depth", 4.0),
            ("batches", 1.0),
            ("last_flush_size", 4.0),
        ):
            assert flat[suffix] == value
        assert ingestor.queue_depth == 0

    def test_the_hub_holds_only_the_simulated_service(self, build_copilot):
        """Indexing and a stream of waves write nothing into the diagnosed hub.

        The history is indexed with an automatically chosen shard window,
        a decision the stage keeps in ``resolved_window_days``; the waves
        run pooled and pipelined.  Every metric name, log record and write
        in the hub is still the simulated service's own.
        """
        service = TransportService(seed=202)
        service.warm_up(hours=0.5)
        alerts = [service.inject_and_detect(fault).primary_alert for fault in FAULTS]
        alerts = [alert for alert in alerts if alert is not None]
        hub = service.hub
        names, records = hub.metrics.metric_names(), list(hub.logs)
        writes = (hub.metrics.writes, hub.logs.writes)
        copilot = build_copilot(service, window_days=None)
        assert copilot.prediction.resolved_window_days is not None
        ingestor = copilot.stream(
            IngestConfig(max_batch=2, collect_workers=2, pipeline_depth=2),
            clock=VirtualClock(),
        )
        ingestor.submit_many(alerts)
        reports = ingestor.flush()
        ingestor.stop()
        assert len(reports) == len(alerts) >= 3
        assert ingestor.stats().batches >= 2
        assert hub.metrics.metric_names() == names
        assert list(hub.logs) == records
        assert (hub.metrics.writes, hub.logs.writes) == writes

    def test_a_poison_message_report_quotes_no_self_metric(self, build_copilot):
        """The system's own counters are not telemetry of the cloud it diagnoses.

        ``poison_message_handler``'s ``routing_metrics`` query names no
        metric, so it lists every name in the hub: a counter the ingestor or
        the prediction stage wrote there would be quoted in the report as a
        line such as ``rcacopilot.cache.embedding_hits: max=0.0 on
        prediction-stage``.
        """
        service = TransportService(seed=202)
        service.warm_up(hours=0.5)
        copilot = build_copilot(service)
        ingestor = copilot.stream(IngestConfig(), clock=VirtualClock())
        futures = []
        for _ in range(2):  # the second alert is diagnosed after a wave
            alert = service.inject_and_detect("UseRouteResolution").primary_alert
            assert alert.alert_type == "PoisonMessageDetected"
            futures.append(ingestor.submit(alert))
            ingestor.flush()
        ingestor.stop()
        text = futures[-1].result(timeout=30.0).incident.diagnostic_info()
        assert "== Key metrics (routing_metrics) ==" in text
        assert [line for line in text.splitlines() if "rcacopilot." in line] == []


class TestPipelineTelemetry:
    """Satellite: the pipeline gauges reach ``stats_dict()``."""

    PIPELINE_SUFFIXES = (
        "pipeline_overlap_seconds",
        "predict_inflight",
        "collect_busy_fraction",
        "predict_busy_fraction",
    )

    def test_pipeline_gauges_reach_stats(
        self, build_copilot, stream_service, alert_feed
    ):
        copilot = build_copilot(stream_service)
        ingestor = copilot.stream(
            IngestConfig(
                max_batch=3,
                max_latency_seconds=1.0,
                collect_workers=2,
                pipeline_depth=2,
            )
        )
        ingestor.submit_many(alert_feed[:9])
        ingestor.flush()
        ingestor.stop()
        flat = ingestor.stats_dict()
        for suffix in self.PIPELINE_SUFFIXES:
            assert suffix in flat
        assert flat["pipeline_overlap_seconds"] >= 0.0
        assert 0.0 <= flat["collect_busy_fraction"] <= 1.0
        assert 0.0 <= flat["predict_busy_fraction"] <= 1.0
        # Everything drained: nothing is left on the prediction lane.
        assert flat["predict_inflight"] == 0.0

    def test_barrier_mode_reports_zero_overlap(
        self, build_copilot, stream_service, alert_feed
    ):
        """Barrier execution never overlaps stages, and says so."""
        copilot = build_copilot(stream_service)
        ingestor = copilot.stream(IngestConfig(max_batch=3, max_latency_seconds=1.0))
        ingestor.submit_many(alert_feed[:6])
        ingestor.flush()
        ingestor.stop()
        flat = ingestor.stats_dict()
        assert flat["pipeline_overlap_seconds"] == 0.0
        assert flat["predict_inflight"] == 0.0


class TestFeedbackMidStream:
    """Satellite: feedback between micro-batches reaches the next batch."""

    @pytest.mark.parametrize("window_days", [20.0, None], ids=["window_20", "window_auto"])
    def test_feedback_visible_to_next_micro_batch(
        self, build_copilot, stream_service, alert_feed, window_days
    ):
        copilot = build_copilot(stream_service, window_days=window_days)
        ingestor = copilot.stream(IngestConfig(max_batch=8, max_latency_seconds=1.0))
        ingestor.submit(alert_feed[0])
        first_batch = ingestor.flush()
        diagnosed = first_batch[0].incident
        assert diagnosed.incident_id not in copilot.prediction.index
        ingestor.record_feedback(diagnosed, "StreamConfirmedCategory")
        assert diagnosed.incident_id in copilot.prediction.index
        assert (
            copilot.prediction.index.get(diagnosed.incident_id).category
            == "StreamConfirmedCategory"
        )
        # Replay the *same* alert as a new stream item: the fed-back incident
        # must come back as a neighbour in the very next micro-batch.
        ingestor.submit(copy.deepcopy(alert_feed[0]))
        second_batch = ingestor.flush()
        neighbor_ids = [n.incident_id for n in second_batch[0].prediction.neighbors]
        assert diagnosed.incident_id in neighbor_ids

    @pytest.mark.parametrize("window_days", [20.0, None], ids=["window_20", "window_auto"])
    def test_feedback_correction_between_batches(
        self, build_copilot, stream_service, alert_feed, window_days
    ):
        copilot = build_copilot(stream_service, window_days=window_days)
        ingestor = copilot.stream()
        ingestor.submit(alert_feed[1])
        report = ingestor.flush()[0]
        ingestor.record_feedback(report.incident, "FirstLabel")
        ingestor.record_feedback(report.incident, "CorrectedLabel")
        entry = copilot.prediction.index.get(report.incident.incident_id)
        assert entry.category == "CorrectedLabel"
