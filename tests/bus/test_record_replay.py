"""Record → replay determinism suite for the alert bus.

The central invariant under test: replaying the same recording at *any*
speed multiplier, under any static pool shape, yields bit-identical
reports, feedback effects (index state), and :class:`IngestStats` — the
replayer's batching decisions run on the recorded timeline while only the
pacing scales, so nothing observable may move with speed.
"""

from __future__ import annotations

import copy
import itertools
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bustest_utils as btu
from repro.bus import (
    AlertEvent,
    BusReplayer,
    FeedbackEvent,
    Recording,
    TrafficRecorder,
    build_recording,
)
from repro.bus.corpora import generate_diurnal_recording
from repro.core import IngestConfig, VirtualClock
from repro.core.errors import IngestQueueFull
from repro.incidents import Incident


@pytest.fixture(scope="module")
def base_copilot():
    """One expensive indexed copilot; every run deep-copies it."""
    return btu.build_replay_copilot()


@pytest.fixture(scope="module")
def small_recording() -> Recording:
    """A short (~1.5h) diurnal recording, regenerated from its seed."""
    return generate_diurnal_recording(hours=1.5, slot_seconds=600.0, seed=17)


@pytest.fixture(scope="module")
def baseline_digest(base_copilot, small_recording) -> str:
    """The 1000x serial-pool digest every other shape must reproduce."""
    result, copilot = replay_with_base(base_copilot, small_recording, 1000.0)
    return btu.replay_digest(result, copilot)


def replay_with_base(base, recording, speed, config=None):
    clock = VirtualClock()
    copilot = copy.deepcopy(base)
    result, _ = btu.run_replay(
        recording, speed, config=config, clock=clock, copilot=copilot
    )
    return result, copilot


class TestTrafficRecorder:
    def test_offsets_are_seconds_since_first_event(self):
        clock = VirtualClock(start=500.0)
        copilot = btu.build_cheap_copilot(clock=clock)
        ingestor = copilot.stream(
            IngestConfig(max_batch=64, max_latency_seconds=300.0), clock=clock
        )
        recorder = TrafficRecorder(ingestor, meta={"site": "unit"})
        try:
            recorder.submit(btu.make_bus_alert(0))
            clock.advance(30.0)
            recorder.submit(btu.make_bus_alert(1))
            clock.advance(12.5)
            recorder.submit_many([btu.make_bus_alert(2), btu.make_bus_alert(3)])
            recorder.flush()
        finally:
            recorder.stop()
        events = recorder.events
        assert [event.offset for event in events] == [0.0, 30.0, 42.5, 42.5]
        assert [event.alert.alert_id for event in events] == [
            "AL-RR-00000",
            "AL-RR-00001",
            "AL-RR-00002",
            "AL-RR-00003",
        ]
        recording = recorder.recording(meta={"extra": 1})
        assert recording.meta["site"] == "unit"
        assert recording.meta["extra"] == 1
        assert recording.meta["alerts"] == 4

    def test_passthrough_preserves_ingestor_behaviour(self):
        copilot = btu.build_cheap_copilot()
        ingestor = copilot.stream(IngestConfig(max_batch=8, max_latency_seconds=0.01))
        with TrafficRecorder(ingestor) as recorder:
            future = recorder.submit(btu.make_bus_alert(0))
            assert future.result(timeout=30.0).incident.incident_id
            assert recorder.stats().submitted == 1
            assert recorder.queue_depth == 0
        # __exit__ stopped the underlying ingestor's worker.
        assert ingestor._worker is None or not ingestor._worker.is_alive()

    def test_load_shed_burst_records_only_the_enqueued_prefix(self):
        """On IngestQueueFull the recording carries the accepted prefix only."""
        copilot = btu.build_cheap_copilot()
        ingestor = copilot.stream(
            IngestConfig(
                max_batch=64,
                max_latency_seconds=300.0,
                queue_capacity=2,
                block_when_full=False,
            )
        )
        recorder = TrafficRecorder(ingestor)
        try:
            alerts = [btu.make_bus_alert(i) for i in range(5)]
            with pytest.raises(IngestQueueFull) as excinfo:
                recorder.submit_many(alerts)
            # The exception carries the enqueued prefix's futures...
            assert len(excinfo.value.enqueued) == 2
            # ...and the recording captured exactly that prefix.
            assert [e.alert.alert_id for e in recorder.events] == [
                "AL-RR-00000",
                "AL-RR-00001",
            ]
            recorder.flush()
            for future in excinfo.value.enqueued:
                assert future.result(timeout=30.0).incident.incident_id
        finally:
            recorder.stop()

    def test_load_shed_scalar_submit_records_nothing(self):
        copilot = btu.build_cheap_copilot()
        ingestor = copilot.stream(
            IngestConfig(
                max_batch=64,
                max_latency_seconds=300.0,
                queue_capacity=1,
                block_when_full=False,
            )
        )
        recorder = TrafficRecorder(ingestor)
        try:
            recorder.submit(btu.make_bus_alert(0))
            with pytest.raises(IngestQueueFull):
                recorder.submit(btu.make_bus_alert(1))
            assert len(recorder.events) == 1
            recorder.flush()
        finally:
            recorder.stop()


class TestLiveRecordReplayParity:
    def test_replay_reproduces_the_live_run(self, base_copilot):
        """Record a manually driven live session, replay it: same everything.

        The live driver cuts where the replayer's rule does (size flush at
        ``max_batch``, latency flush when the window expires), so the
        replayer must land every alert in the same batch — making
        reports, stats, feedback effects, and index state equal.
        """
        config = btu.replay_ingest_config(max_batch=4, max_latency=120.0)
        clock = VirtualClock()
        live_copilot = copy.deepcopy(base_copilot)
        ingestor = live_copilot.stream(config, clock=clock)
        recorder = TrafficRecorder(ingestor)
        live_futures = []
        try:
            # Wave 1: exactly max_batch alerts -> one "size" flush.
            for index in range(4):
                live_futures.append(recorder.submit(btu.make_bus_alert(index)))
                clock.advance(5.0)
            ingestor.flush(reason="size")
            # OCE feedback on the first resolved incident, mid-stream.
            incident = live_futures[0].result(timeout=30.0).incident
            recorder.record_feedback(incident, "FullDisk")
            # Wave 2: three stragglers, flushed by the latency deadline.
            clock.advance(40.0)
            for index in range(4, 7):
                live_futures.append(
                    recorder.submit(
                        btu.make_bus_alert(index, alert_type="PriorityQueueDelay")
                    )
                )
                clock.advance(1.0)
            clock.advance(120.0)
            ingestor.flush(reason="latency")
            live_reports = [f.result(timeout=30.0) for f in live_futures]
            live_stats = ingestor.stats()
        finally:
            recorder.stop()

        recording = recorder.recording()
        assert Recording.loads(recording.dumps()).dumps() == recording.dumps()
        result, replay_copilot = replay_with_base(
            base_copilot, recording, speed=250.0, config=config
        )
        assert not result.failures
        assert [r.render() for r in result.reports] == [
            r.render() for r in live_reports
        ]
        assert [r.predicted_label for r in result.reports] == [
            r.predicted_label for r in live_reports
        ]
        assert result.feedbacks == 1
        assert result.stats.as_dict() == live_stats.as_dict()
        assert len(replay_copilot.prediction.index) == len(
            live_copilot.prediction.index
        )


class TestReplayDeterminism:
    def test_bit_identical_across_speeds(self, base_copilot, small_recording):
        """1x vs 1000x under a virtual clock: every observable is equal."""
        slow, slow_copilot = replay_with_base(base_copilot, small_recording, 1.0)
        fast, fast_copilot = replay_with_base(base_copilot, small_recording, 1000.0)
        assert btu.replay_digest(slow, slow_copilot) == btu.replay_digest(
            fast, fast_copilot
        )
        assert len(slow.reports) == len(small_recording.alerts)
        assert not slow.failures
        assert slow.stats.as_dict() == fast.stats.as_dict()
        assert sum(slow.stats.flush_reasons.values()) == slow.stats.batches
        # Pacing scales exactly: the virtual clock advanced 1000x less.
        assert fast.replay_seconds == pytest.approx(
            slow.replay_seconds / 1000.0, rel=1e-9
        )

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        speed=st.sampled_from([3.0, 50.0, 1000.0, 86400.0]),
        workers=st.sampled_from([None, 2, 4]),
        depth=st.sampled_from([1, 2]),
    )
    def test_locked_across_speeds_and_pool_shapes(
        self, base_copilot, small_recording, baseline_digest, speed, workers, depth
    ):
        """Hypothesis lock: digest(speed, pool, pipeline) == digest(1000x, serial)."""
        expected = baseline_digest
        config = btu.replay_ingest_config(collect_workers=workers, pipeline_depth=depth)
        run, run_copilot = replay_with_base(
            base_copilot, small_recording, speed, config=config
        )
        assert btu.replay_digest(run, run_copilot) == expected


class TestFlushReenactment:
    def build_synthetic(self) -> Recording:
        """Alerts at 0/1/2 (a size flush at max_batch=3), a feedback at 50,
        then alerts at 100/105 whose latency window (L=10) expires at 110."""
        incident = Incident.from_alert("OCE-SYN-1", btu.make_bus_alert(0))
        events = [
            AlertEvent(offset=0.0, alert=btu.make_bus_alert(0)),
            AlertEvent(offset=1.0, alert=btu.make_bus_alert(1)),
            AlertEvent(offset=2.0, alert=btu.make_bus_alert(2)),
            FeedbackEvent(offset=50.0, incident=incident, category="FullDisk"),
            AlertEvent(offset=100.0, alert=btu.make_bus_alert(3)),
            AlertEvent(offset=105.0, alert=btu.make_bus_alert(4)),
        ]
        return build_recording(events, meta={"name": "synthetic"})

    def test_flush_reasons_match_the_worker_policy(self, base_copilot):
        recording = self.build_synthetic()
        config = btu.replay_ingest_config(max_batch=3, max_latency=10.0)
        result, _ = replay_with_base(base_copilot, recording, 1.0, config=config)
        stats = result.stats
        assert stats.batches == 2
        assert stats.flush_reasons == {"size": 1, "latency": 1, "manual": 0}
        assert stats.processed == stats.submitted == 5
        assert stats.last_flush_size == 2
        assert result.feedbacks == 1
        # The tail latency flush fires at window_start + L = 110 on the
        # recorded timeline, so at speed 1 the replay clock spans exactly that.
        assert result.replay_seconds == pytest.approx(110.0)

    def test_event_on_the_latency_deadline_starts_the_next_batch(self, base_copilot):
        """An alert landing exactly at window_start + L goes to batch 2:
        by then the first one has waited out its bound."""
        events = [
            AlertEvent(offset=0.0, alert=btu.make_bus_alert(0)),
            AlertEvent(offset=10.0, alert=btu.make_bus_alert(1)),
        ]
        recording = build_recording(events)
        config = btu.replay_ingest_config(max_batch=64, max_latency=10.0)
        result, _ = replay_with_base(base_copilot, recording, 1.0, config=config)
        stats = result.stats
        assert stats.batches == 2
        assert stats.flush_reasons == {"size": 0, "latency": 2, "manual": 0}
        assert stats.last_flush_size == 1

    def test_real_clock_replay_matches_virtual(self, base_copilot):
        """On the real (monotonic) clock at high speed the same recording
        produces the same reports and counters — pacing sleeps instead of
        advancing, batching is unchanged."""
        recording = self.build_synthetic()
        config = btu.replay_ingest_config(max_batch=3, max_latency=10.0)
        virtual, virtual_copilot = replay_with_base(
            base_copilot, recording, 1.0, config=config
        )
        from repro.core.clock import MonotonicClock

        real_copilot = copy.deepcopy(base_copilot)
        real, real_copilot = btu.run_replay(
            recording,
            speed=100000.0,
            config=config,
            clock=MonotonicClock(),
            copilot=real_copilot,
        )
        assert btu.replay_digest(real, real_copilot) == btu.replay_digest(
            virtual, virtual_copilot
        )
        # 110 recorded seconds at 100000x is ~1ms of real pacing.
        assert real.replay_seconds < 30.0


class _CutLog:
    """The slice of a stream ingestor the replayer touches; logs each cut."""

    _worker = None

    def __init__(self, config: IngestConfig) -> None:
        self.config = config
        self.clock = VirtualClock()
        self.queued = 0
        self.cuts = []

    def submit(self, alert):
        self.queued += 1
        future = Future()
        future.set_result(alert)
        return future

    def flush(self, reason="manual"):
        self.cuts.append((reason, self.queued, self.clock.monotonic()))
        self.queued = 0
        return []

    def stats(self):
        return None


def previous_inline_rule(offsets, max_batch, max_latency):
    """The replayer's flush decisions as it took them at three inline call
    sites, kept verbatim as the reference: (reason, size, due)."""
    cuts = []
    pending = 0
    window_start = None
    for offset in offsets:
        if (
            pending
            and window_start is not None
            and offset >= window_start + max_latency
        ):
            cuts.append(("latency", pending, window_start + max_latency))
            pending, window_start = 0, None
        if pending == 0:
            window_start = offset
        pending += 1
        if pending >= max_batch:
            cuts.append(("size", pending, offset))
            pending, window_start = 0, None
    if pending and window_start is not None:
        cuts.append(("latency", pending, window_start + max_latency))
    return cuts


LATENCIES = (0.05, 0.1, 1.0 / 3.0, 10.0)


def replay_cuts(offsets, config):
    """(reason, size, clock instant) of every flush a replay of ``offsets`` makes."""
    log = _CutLog(config)
    recording = build_recording(
        AlertEvent(offset=offset, alert=btu.make_bus_alert(index))
        for index, offset in enumerate(offsets)
    )
    # build_recording keeps offsets as given (they are already sorted).
    assert [event.offset for event in recording.events] == offsets
    BusReplayer(recording, speed=1.0).replay(log)
    return log.cuts


class TestReplayFlushRule:
    """The replayer's size/latency rule on the recorded timeline."""

    def test_deadline_is_a_sum_not_a_difference(self):
        """An alert on the deadline opens the next batch.  The deadline is
        ``start + bound`` (0.3 + 0.05 == 0.35); the wait as a difference,
        0.35 - 0.3, is one ulp short of 0.05 and would merge the two."""
        assert 0.3 + 0.05 == 0.35 and 0.35 - 0.3 < 0.05
        config = IngestConfig(max_batch=4, max_latency_seconds=0.05)
        cuts = replay_cuts([0.3, 0.35], config)
        assert [cut[:2] for cut in cuts] == [("latency", 1), ("latency", 1)]
        cuts = replay_cuts([0.3, 0.34, 0.34, 0.34, 0.36], config)
        assert [cut[:2] for cut in cuts] == [("size", 4), ("latency", 1)]

    @settings(max_examples=200, deadline=None)
    @given(
        max_batch=st.integers(min_value=1, max_value=5),
        max_latency=st.sampled_from(LATENCIES),
        start=st.sampled_from([0.0, 0.3, 7.1]),
        gaps=st.lists(
            st.one_of(
                st.sampled_from([0.0, *LATENCIES, *(2 * bound for bound in LATENCIES)]),
                st.floats(min_value=0.0, max_value=0.5),
            ),
            max_size=24,
        ),
    )
    def test_replayer_cuts_match_the_previous_inline_rule(
        self, max_batch, max_latency, start, gaps
    ):
        """Differential: the replayer cuts every random timeline — gaps of
        exactly the bound (an arrival on the deadline), simultaneous
        arrivals, and the tail included — where the three inline
        comparisons it used to make did, with the same reason."""
        offsets = list(itertools.accumulate(gaps, initial=start))
        config = IngestConfig(max_batch=max_batch, max_latency_seconds=max_latency)
        cuts = replay_cuts(offsets, config)
        expected = previous_inline_rule(offsets, max_batch, max_latency)
        assert [cut[:2] for cut in cuts] == [cut[:2] for cut in expected]
        # The clock is paced to each cut's due instant (advance() adds a
        # difference, so equal only to rounding).
        assert [cut[2] for cut in cuts] == pytest.approx([cut[2] for cut in expected])
        assert sum(size for _, size, _ in cuts) == len(offsets)


class TestReplayerGuards:
    def test_refuses_a_running_background_worker(self, small_recording):
        copilot = btu.build_cheap_copilot()
        ingestor = copilot.stream(
            IngestConfig(max_batch=8, max_latency_seconds=0.01)
        ).start()
        try:
            with pytest.raises(ValueError, match="manually driven"):
                BusReplayer(small_recording).replay(ingestor)
        finally:
            ingestor.stop()

    @pytest.mark.parametrize("speed", [0.0, -1.0])
    def test_rejects_non_positive_speed(self, small_recording, speed):
        with pytest.raises(ValueError, match="speed multiplier"):
            BusReplayer(small_recording, speed=speed)
