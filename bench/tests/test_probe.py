"""The speed probe and the scaling of times to reference speed."""

import pytest

from bench import probe
from bench.probe import at_reference_speed
from bench.workloads import Measured


def test_lap_averages_the_samples_around_a_round(monkeypatch):
    timings = iter([1.0, 0.009, 0.009, 0.0045, 0.0045, 0.003, 0.003])  # the first warms up
    monkeypatch.setattr(probe, "kernel", lambda: next(timings))
    speed_probe = probe.SpeedProbe()
    reference = probe.REFERENCE_SECONDS
    assert speed_probe.lap() == pytest.approx(reference / 0.009)  # nothing before it
    assert speed_probe.lap() == pytest.approx((reference / 0.009 + reference / 0.0045) / 2)
    assert speed_probe.lap() == pytest.approx((reference / 0.0045 + reference / 0.003) / 2)
    assert speed_probe.busy_seconds == pytest.approx(0.033)


def test_kernel_is_timed_and_repeatable():
    first, second = probe.kernel(), probe.kernel()
    assert 0.0 < first < 1.0 and 0.0 < second < 1.0


def test_only_the_part_beyond_a_timer_is_scaled():
    assert at_reference_speed(100.0, 0.5) == pytest.approx(50.0)
    assert at_reference_speed(100.0, 0.5, timer_ms=50.0) == pytest.approx(75.0)
    assert at_reference_speed(30.0, 0.5, timer_ms=50.0) == pytest.approx(30.0)
    assert at_reference_speed(100.0, 1.0, timer_ms=50.0) == pytest.approx(100.0)


def test_add_round_keeps_raw_and_scaled_latencies_side_by_side():
    measured = Measured()
    measured.add_round(4, 2.0, 0.8, 1.2, [10.0, 20.0])
    measured.add_round(4, 1.0, 1.0, 0.9, [30.0])
    assert measured.items == 8
    assert measured.round_speed == [0.8, 1.0]
    assert measured.round_scaled_cpu_seconds == pytest.approx([1.2, 0.9])
    assert measured.latencies_ms == [10.0, 20.0, 30.0]
    assert measured.scaled_latencies_ms == pytest.approx([8.0, 16.0, 30.0])
