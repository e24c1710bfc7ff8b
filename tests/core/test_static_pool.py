"""Tests for the static collection pool behind the stream ingestor.

The pool has one size for the ingestor's whole life, set by
``IngestConfig.collect_workers`` (serial when None): bursts and idle
stretches never resize it, and every wave collects on a pool of that size.
A bursty virtual-I/O stream (busy bursts, idle stretches, planted flaky
failures) yields the same reports, failures, feedback effects and ingest
counters at every pool size and pipeline depth.  The knobs of the
collection-pool autoscaler this pool replaced are rejected, not ignored.

Everything runs on a step-controlled :class:`FakeClock`: busy handlers
advance it instead of sleeping, so no test waits on real time.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util

import pytest

import repro.core
import streamtest_utils as stu
from repro.core import CollectionPool, IngestConfig, RCACopilot

FakeClock = stu.FakeClock

#: Every pool shape the ingestor supports: serial, then thread pools.
POOL_SIZES = (None, 1, 2, 4)

#: Virtual seconds one busy alert's handler spends on the FakeClock.
BUSY_SECONDS = 0.05

#: (kind, flaky) of each alert in the bursty stream.
BURSTY_SPEC = (
    [("busy", False)] * 4
    + [("flaky", True), ("idle", False)] * 2
    + [("busy", False)] * 3
    + [("idle", False)] * 4
)
KIND_TYPES = {"busy": stu.BUSY_TYPE, "idle": stu.IDLE_TYPE, "flaky": stu.FLAKY_TYPE}
BUSY_ALERTS = sum(1 for kind, _ in BURSTY_SPEC if kind == "busy")

#: The knobs of the deleted autoscaler.
REMOVED_KNOBS = ("autoscale", "collect_workers_min", "collect_workers_max")


def bursty_alerts():
    return [
        stu.make_stream_alert(i, alert_type=KIND_TYPES[kind], flaky=flaky)
        for i, (kind, flaky) in enumerate(BURSTY_SPEC)
    ]


def static_config(workers, max_batch: int = 1, pipeline_depth: int = 1) -> IngestConfig:
    # max_batch=1 puts one alert in each wave, so a wave's wall time is
    # exactly the virtual I/O its one alert spent.
    return IngestConfig(
        max_batch=max_batch,
        max_latency_seconds=5.0,
        collect_workers=workers,
        pipeline_depth=pipeline_depth,
    )


@pytest.fixture()
def virtual_io_clock():
    clock = FakeClock()
    stu.VIRTUAL_IO["clock"] = clock
    stu.VIRTUAL_IO["seconds"] = BUSY_SECONDS
    yield clock
    stu.VIRTUAL_IO["clock"] = None


@pytest.fixture(scope="module")
def base_copilot() -> RCACopilot:
    return stu.build_stream_copilot(strict=True)


def run_bursty_stream(base: RCACopilot, workers, pipeline_depth: int = 1):
    """Ingest the bursty stream twice, feedback in between; return the outcome."""
    clock = FakeClock()
    stu.VIRTUAL_IO["clock"] = clock
    stu.VIRTUAL_IO["seconds"] = BUSY_SECONDS
    try:
        copilot = copy.deepcopy(base)
        hub_before = stu.hub_state(copilot.hub)
        ingestor = copilot.stream(
            static_config(workers, pipeline_depth=pipeline_depth), clock=clock
        )
        try:
            futures1 = ingestor.submit_many(bursty_alerts())
            ingestor.flush()
            reports1, failures1 = stu.drain_futures(futures1)
            fed_ids = []
            for position in sorted(reports1):
                incident = futures1[position].result().incident
                ingestor.record_feedback(incident, f"ConfirmedCategory{position % 3}")
                fed_ids.append(incident.incident_id)
            futures2 = ingestor.submit_many(bursty_alerts())
            ingestor.flush()
            reports2, failures2 = stu.drain_futures(futures2)
            return {
                "reports1": reports1,
                "failures1": failures1,
                "reports2": reports2,
                "failures2": failures2,
                "index_state": stu.index_state(copilot, fed_ids),
                "stats": ingestor.stats(),
                "hub": (hub_before, stu.hub_state(copilot.hub)),
            }
        finally:
            ingestor.stop()
    finally:
        stu.VIRTUAL_IO["clock"] = None


@pytest.fixture(scope="module")
def serial_baseline(base_copilot):
    return run_bursty_stream(base_copilot, workers=None)


class TestOneSizeForLife:
    @pytest.mark.parametrize("workers", POOL_SIZES)
    def test_pool_size_holds_on_every_wave(
        self, base_copilot, virtual_io_clock, workers
    ):
        copilot = copy.deepcopy(base_copilot)
        ingestor = copilot.stream(static_config(workers), clock=virtual_io_clock)
        pool = ingestor._collect_pool  # noqa: SLF001
        run, sizes = pool.run, []

        def sized_run(alerts):
            sizes.append(pool.workers)
            return run(alerts)

        pool.run = sized_run
        try:
            ingestor.submit_many(bursty_alerts())
            ingestor.flush()
            assert pool.workers == workers
        finally:
            ingestor.stop()
        assert len(sizes) == len(BURSTY_SPEC) == ingestor.stats().batches
        assert set(sizes) == {workers}

    @pytest.mark.parametrize("workers", POOL_SIZES)
    def test_waves_and_feedback_leave_the_hub_as_they_found_it(
        self, base_copilot, workers
    ):
        """The pool's size is read from the pool, not from the hub: busy,
        flaky and idle waves plus mid-stream feedback write nothing there."""
        run = run_bursty_stream(base_copilot, workers)
        assert run["failures1"] and run["reports2"]
        before, after = run["hub"]
        assert after == before


class TestBurstyStreamParity:
    @pytest.mark.parametrize("pipeline_depth", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_every_static_size_matches_the_serial_run(
        self, base_copilot, serial_baseline, workers, pipeline_depth
    ):
        """Reports, failures, post-feedback index state and IngestStats are
        value-identical to the serial barrier run."""
        run = run_bursty_stream(base_copilot, workers, pipeline_depth=pipeline_depth)
        assert run == serial_baseline
        assert run["failures1"]  # the planted flaky alerts did fail


class TestRemovedAutoscaler:
    @pytest.mark.parametrize("knob", REMOVED_KNOBS)
    def test_an_autoscaler_knob_is_rejected(self, knob):
        with pytest.raises(TypeError):
            IngestConfig(**{knob: 2})

    def test_ingest_config_keeps_six_fields(self):
        assert [field.name for field in dataclasses.fields(IngestConfig)] == [
            "max_batch",
            "max_latency_seconds",
            "queue_capacity",
            "block_when_full",
            "collect_workers",
            "pipeline_depth",
        ]

    @pytest.mark.parametrize("name", ["AutoscalePolicy", "PoolAutoscaler"])
    def test_core_exports_no_autoscaler(self, name):
        assert not hasattr(repro.core, name)
        assert name not in repro.core.__all__

    def test_the_autoscale_module_and_resize_are_gone(self):
        assert importlib.util.find_spec("repro.core.autoscale") is None
        assert not hasattr(CollectionPool, "resize")

    def test_stats_carry_no_autoscale_keys(self, base_copilot, virtual_io_clock):
        copilot = copy.deepcopy(base_copilot)
        ingestor = copilot.stream(static_config(2), clock=virtual_io_clock)
        try:
            ingestor.submit_many(bursty_alerts()[:4])
            ingestor.flush()
            flat = ingestor.stats_dict()
        finally:
            ingestor.stop()
        assert [key for key in flat if "autoscale" in key] == []
