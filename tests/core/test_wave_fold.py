"""What one micro-batch leaves behind: ids, futures, counters and gauges.

Every wave of :class:`~repro.core.streaming.StreamIngestor` runs through
one collect step (ids reserved in submission order, cancelled alerts
dropped first) and one finish step (futures resolved, counters folded,
gauges exported once).  Barrier and pipelined execution share both steps,
so every case here runs at ``pipeline_depth`` 1 and 2 and must read the
same.  All alerts ride the sleep-free idle/flaky handlers and are driven by
manual ``flush()``, so the module takes no real sleeps.
"""

from __future__ import annotations

import copy

import pytest

import streamtest_utils as stu
from repro.core import CollectionError, RCACopilot

#: (pipeline_depth, id): the barrier path and the double-buffered one.
DEPTHS = [pytest.param(1, id="barrier"), pytest.param(2, id="pipelined")]


@pytest.fixture(scope="module")
def base_copilot() -> RCACopilot:
    """One indexed copilot; every test deep-copies it."""
    return stu.build_stream_copilot(strict=True)


@pytest.fixture
def stream(base_copilot, request):
    """``stream(depth, max_batch=3)``: (copilot, ingestor), stopped at teardown."""
    ingestors = []

    def build(depth, max_batch=3):
        copilot = copy.deepcopy(base_copilot)
        ingestor = copilot.stream(
            stu.ingest_config(None, max_batch=max_batch, pipeline_depth=depth)
        )
        ingestors.append(ingestor)
        return copilot, ingestor

    yield build
    for ingestor in ingestors:
        ingestor.stop()


def idle_alerts(first, count):
    return [stu.make_stream_alert(first + i, stu.IDLE_TYPE) for i in range(count)]


def flaky_alert(index):
    return stu.make_stream_alert(index, stu.FLAKY_TYPE, flaky=True)


def id_number(report) -> int:
    """The counter of an ``INC-LIVE-000042`` incident id."""
    return int(report.incident.incident_id.rsplit("-", 1)[1])


@pytest.mark.parametrize("depth", DEPTHS)
class TestIncidentIds:
    def test_ids_are_one_sequence_in_submission_order(self, stream, depth):
        _, ingestor = stream(depth)
        futures = ingestor.submit_many(idle_alerts(0, 7))
        ingestor.flush()  # three waves: 3 + 3 + 1
        numbers = [id_number(future.result(timeout=30.0)) for future in futures]
        assert numbers == list(range(numbers[0], numbers[0] + 7))

    def test_a_failed_collection_keeps_its_reserved_id(self, stream, depth):
        _, ingestor = stream(depth)
        futures = ingestor.submit_many(
            [stu.make_stream_alert(0, stu.IDLE_TYPE), flaky_alert(1),
             stu.make_stream_alert(2, stu.IDLE_TYPE)]
        )
        ingestor.flush()
        with pytest.raises(CollectionError):
            futures[1].result(timeout=30.0)
        first, last = (id_number(futures[i].result(timeout=30.0)) for i in (0, 2))
        assert last == first + 2

    def test_a_cancelled_alert_reserves_no_id(self, stream, depth):
        _, ingestor = stream(depth)
        futures = ingestor.submit_many(idle_alerts(0, 3))
        assert futures[1].cancel()
        ingestor.flush()
        first, last = (id_number(futures[i].result(timeout=30.0)) for i in (0, 2))
        assert last == first + 1
        stats = ingestor.stats()
        assert (stats.submitted, stats.processed, stats.batches) == (3, 2, 1)

    def test_a_wave_of_only_cancelled_alerts_counts_nothing(self, stream, depth):
        copilot, ingestor = stream(depth)
        futures = ingestor.submit_many(idle_alerts(0, 2))
        assert all(future.cancel() for future in futures)
        assert ingestor.flush() == []
        stats = ingestor.stats()
        assert (stats.submitted, stats.processed, stats.batches) == (2, 0, 0)
        assert stu.flush_sizes(copilot.hub) == []
        # The ids were never reserved: the next alert takes the first one.
        (future,) = ingestor.submit_many(idle_alerts(2, 1))
        ingestor.flush()
        assert future.result(timeout=30.0).incident.incident_id == "INC-LIVE-000001"


@pytest.mark.parametrize("depth", DEPTHS)
class TestFinishFold:
    def test_every_wave_folds_its_counters(self, stream, depth):
        _, ingestor = stream(depth)
        alerts = idle_alerts(0, 7)
        alerts[4] = flaky_alert(4)
        ingestor.submit_many(alerts)
        reports = ingestor.flush()
        assert len(reports) == 6
        stats = ingestor.stats()
        assert stats.submitted == stats.processed == 7
        assert stats.batches == 3
        assert stats.last_flush_size == 1
        assert stats.collect_failures == 1
        assert stats.worker_errors == 0
        assert stats.flush_reasons == {"size": 0, "latency": 0, "manual": 3}

    def test_every_wave_exports_one_gauge_set(self, stream, depth):
        copilot, ingestor = stream(depth)
        alerts = idle_alerts(0, 7)
        alerts[4] = flaky_alert(4)
        ingestor.submit_many(alerts)
        ingestor.flush()
        metrics = copilot.hub.metrics
        assert stu.flush_sizes(copilot.hub) == [3, 3, 1]
        for suffix, value in (
            ("processed", 7.0),
            ("batches", 3.0),
            ("collect_failures", 1.0),
            ("flush_reason_manual", 3.0),
            ("queue_depth", 0.0),
        ):
            assert metrics.latest(f"rcacopilot.ingest.{suffix}", "stream-ingestor") == value
        assert len(metrics.series("rcacopilot.ingest.batches", "stream-ingestor")) == 3

    def test_a_prediction_error_fails_the_wave_not_the_stream(
        self, stream, depth, monkeypatch
    ):
        copilot, ingestor = stream(depth)

        def model_down(collections, **kwargs):
            raise RuntimeError("prediction backend down")

        monkeypatch.setattr(copilot, "diagnose_collected", model_down)
        futures = ingestor.submit_many(
            [stu.make_stream_alert(0, stu.IDLE_TYPE), flaky_alert(1)]
        )
        assert ingestor.flush() == []
        with pytest.raises(RuntimeError, match="prediction backend down"):
            futures[0].result(timeout=30.0)
        with pytest.raises(CollectionError):
            futures[1].result(timeout=30.0)
        stats = ingestor.stats()
        assert (stats.processed, stats.batches) == (2, 1)
        assert (stats.collect_failures, stats.worker_errors) == (1, 0)
        monkeypatch.undo()
        (survivor,) = ingestor.submit_many(idle_alerts(2, 1))
        ingestor.flush()
        assert survivor.result(timeout=30.0).predicted_label

    def test_a_failed_export_neither_strands_nor_double_counts(
        self, stream, depth, monkeypatch
    ):
        """The export runs after the fold: if it raises, every future is
        already resolved, so the containment finds nothing left to fail."""
        copilot, ingestor = stream(depth)
        emit_metrics = copilot.hub.emit_metrics

        def ingest_sink_down(metrics, machine, **kwargs):
            if machine == "stream-ingestor":
                raise RuntimeError("telemetry sink down")
            emit_metrics(metrics, machine=machine, **kwargs)

        monkeypatch.setattr(copilot.hub, "emit_metrics", ingest_sink_down)
        futures = ingestor.submit_many(idle_alerts(0, 2))
        assert ingestor.flush() == []
        assert all(future.result(timeout=30.0).predicted_label for future in futures)
        stats = ingestor.stats()
        assert (stats.submitted, stats.processed, stats.batches) == (2, 2, 1)
        assert stats.worker_errors == 0

    def test_flush_is_bounded_by_its_call_time_depth(self, stream, depth):
        """A done-callback that resubmits cannot keep ``flush`` from returning:
        the resubmitted alert waits for the next flush."""
        _, ingestor = stream(depth)
        resubmitted = []

        def resubmit(done):
            resubmitted.append(ingestor.submit(stu.make_stream_alert(9, stu.IDLE_TYPE)))

        futures = ingestor.submit_many(idle_alerts(0, 2))
        futures[1].add_done_callback(resubmit)
        assert len(ingestor.flush()) == 2
        assert len(resubmitted) == 1 and not resubmitted[0].done()
        assert ingestor.queue_depth == 1
        assert len(ingestor.flush()) == 1
        assert resubmitted[0].result(timeout=30.0).predicted_label
        assert ingestor.stats().processed == 3


class TestFlushReasons:
    @pytest.mark.parametrize("reason", ["size", "latency", "manual"])
    def test_a_flush_is_counted_and_exported_under_its_reason(self, stream, reason):
        copilot, ingestor = stream(1)
        ingestor.submit_many(idle_alerts(0, 2))
        ingestor.flush(reason=reason)
        reasons = ingestor.stats().flush_reasons
        assert reasons[reason] == 1
        assert sum(reasons.values()) == 1
        gauge = copilot.hub.metrics.latest(
            f"rcacopilot.ingest.flush_reason_{reason}", "stream-ingestor"
        )
        assert gauge == 1.0

    def test_an_empty_burst_counts_nothing(self, stream):
        _, ingestor = stream(1)
        assert ingestor.submit_many([]) == []
        stats = ingestor.stats()
        assert (stats.submitted, stats.max_queue_depth) == (0, 0)
        assert ingestor.flush() == []
