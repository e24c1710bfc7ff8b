"""Tests for the metric store."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.telemetry import MetricSeries, MetricStore, summarize_series
from repro.telemetry.metrics import merge_stores


class TestMetricSeries:
    def test_add_and_points(self):
        series = MetricSeries("cpu", "m1")
        series.add(1.0, 10.0)
        series.add(2.0, 20.0)
        assert len(series) == 2
        assert [p.value for p in series.points()] == [10.0, 20.0]

    def test_out_of_order_insertion(self):
        series = MetricSeries("cpu", "m1")
        series.add(5.0, 50.0)
        series.add(1.0, 10.0)
        assert [p.timestamp for p in series.points()] == [1.0, 5.0]

    def test_window_queries(self):
        series = MetricSeries("cpu", "m1")
        for i in range(10):
            series.add(float(i), float(i) * 2)
        assert series.values(start=2.0, end=4.0) == [4.0, 6.0, 8.0]

    def test_latest_empty_and_nonempty(self):
        series = MetricSeries("cpu", "m1")
        assert series.latest() is None
        series.add(1.0, 3.0)
        assert series.latest().value == 3.0

    def test_aggregations(self):
        series = MetricSeries("cpu", "m1")
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            series.add(float(i), v)
        assert series.mean() == pytest.approx(2.5)
        assert series.maximum() == 4.0
        assert series.minimum() == 1.0
        assert series.stddev() == pytest.approx(1.118, abs=1e-3)

    def test_rate(self):
        series = MetricSeries("count", "m1")
        series.add(0.0, 0.0)
        series.add(10.0, 100.0)
        assert series.rate() == pytest.approx(10.0)

    def test_rate_degenerate(self):
        series = MetricSeries("count", "m1")
        series.add(1.0, 5.0)
        assert series.rate() == 0.0

    def test_zscore_anomalies(self):
        series = MetricSeries("cpu", "m1")
        for i in range(20):
            series.add(float(i), 10.0)
        series.add(20.0, 1000.0)
        anomalies = series.zscore_anomalies(threshold=3.0)
        assert len(anomalies) == 1
        assert anomalies[0].value == 1000.0

    def test_zscore_no_variance(self):
        series = MetricSeries("cpu", "m1")
        for i in range(5):
            series.add(float(i), 1.0)
        assert series.zscore_anomalies() == []

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_mean_between_min_and_max(self, values):
        series = MetricSeries("x", "m")
        for i, v in enumerate(values):
            series.add(float(i), v)
        assert series.minimum() <= series.mean() <= series.maximum()


class TestMetricStore:
    def test_record_and_series(self):
        store = MetricStore()
        store.record("cpu", "m1", 1.0, 10.0)
        store.record("cpu", "m2", 1.0, 30.0)
        assert len(store) == 2
        assert store.latest("cpu", "m1") == 10.0
        assert store.latest("cpu", "missing") is None

    def test_metric_and_machine_listings(self):
        store = MetricStore()
        store.record("cpu", "m1", 1.0, 1.0)
        store.record("disk", "m2", 1.0, 2.0)
        assert store.metric_names() == ["cpu", "disk"]
        assert store.machines() == ["m1", "m2"]

    def test_aggregate_modes(self):
        store = MetricStore()
        for t, v in [(1.0, 1.0), (2.0, 5.0)]:
            store.record("cpu", "m1", t, v)
        assert store.aggregate("cpu", how="mean")["m1"] == pytest.approx(3.0)
        assert store.aggregate("cpu", how="max")["m1"] == 5.0
        assert store.aggregate("cpu", how="min")["m1"] == 1.0
        assert store.aggregate("cpu", how="latest")["m1"] == 5.0

    def test_aggregate_unknown_mode_raises(self):
        store = MetricStore()
        store.record("cpu", "m1", 1.0, 1.0)
        with pytest.raises(ValueError):
            store.aggregate("cpu", how="median")

    def test_unknown_mode_raises_for_a_metric_without_series(self):
        store = MetricStore()
        with pytest.raises(ValueError):
            store.aggregate("cpu", how="median")
        with pytest.raises(ValueError):
            store.top_machines("cpu", how="median")

    def test_top_machines(self):
        store = MetricStore()
        store.record("cpu", "m1", 1.0, 10.0)
        store.record("cpu", "m2", 1.0, 90.0)
        store.record("cpu", "m3", 1.0, 50.0)
        top = store.top_machines("cpu", top=2)
        assert top[0][0] == "m2"
        assert len(top) == 2

    def test_threshold_breaches(self):
        store = MetricStore()
        store.record("disk", "m1", 1.0, 99.0)
        store.record("disk", "m2", 1.0, 10.0)
        breaches = store.threshold_breaches("disk", threshold=95.0)
        assert list(breaches) == ["m1"]

    def test_merge_stores(self):
        a, b = MetricStore(), MetricStore()
        a.record("cpu", "m1", 1.0, 1.0)
        b.record("cpu", "m2", 1.0, 2.0)
        merged = merge_stores([a, b])
        assert len(merged) == 2

    def test_summarize_series(self):
        series = MetricSeries("cpu", "m1", unit="%")
        series.add(1.0, 50.0)
        text = summarize_series(series)
        assert "cpu@m1" in text and "%" in text


class TestConcurrentWriters:
    """Regression: the hub's metric paths are written from several threads.

    Before the store/series locks, concurrent ``record`` calls lost
    samples two ways: two threads creating the same series raced the
    get-then-set on the series dict (one thread's sample landed in a
    series that was immediately overwritten), and two threads appending
    to one series raced the list mutations.  The hammer drives both
    shapes — many threads on one series, and many threads fanning over a
    shared set of series — with concurrent readers scanning windows, and
    asserts not a single sample was lost or torn.
    """

    def test_multi_writer_hammer_loses_no_samples(self):
        import threading

        store = MetricStore()
        writers = 8
        samples = 300
        start_gate = threading.Event()
        errors = []

        def write(worker: int) -> None:
            try:
                start_gate.wait(timeout=10.0)
                for step in range(samples):
                    # Same-series contention: everyone hits ("hot", "m0").
                    store.record("hot", "m0", float(step), float(worker))
                    # First-sample contention: each (metric, machine) pair
                    # is created under the race, not ahead of it.
                    store.record(f"cold-{step % 7}", f"m{worker % 3}",
                                 float(step), 1.0)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def read() -> None:
            try:
                start_gate.wait(timeout=10.0)
                for _ in range(samples):
                    series = store.series("hot", "m0")
                    if series is not None:
                        # A torn insert would surface here as an index error
                        # or a points() scan over a half-shifted list.
                        series.points(start=10.0, end=200.0)
                        series.latest()
                    store.aggregate("cold-3", how="max")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(worker,)) for worker in range(writers)
        ] + [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        start_gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        hot = store.series("hot", "m0")
        assert hot is not None and len(hot) == writers * samples
        cold_total = sum(
            len(store.series(f"cold-{bucket}", f"m{machine}") or [])
            for bucket in range(7)
            for machine in range(3)
        )
        assert cold_total == writers * samples

    def test_out_of_order_inserts_race_ordered_reads(self):
        import threading

        series = MetricSeries("jitter", "m0")
        start_gate = threading.Event()
        errors = []

        def write(worker: int) -> None:
            try:
                start_gate.wait(timeout=10.0)
                # Descending timestamps force the bisect-insert path on
                # every add — the racy list surgery the lock now guards.
                for step in range(200, 0, -1):
                    series.add(float(step * 3 + worker), float(worker))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def read() -> None:
            try:
                start_gate.wait(timeout=10.0)
                for _ in range(400):
                    points = series.points()
                    timestamps = [p.timestamp for p in points]
                    assert timestamps == sorted(timestamps)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(3)]
        threads.append(threading.Thread(target=read))
        for thread in threads:
            thread.start()
        start_gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(series) == 3 * 200
        final = [p.timestamp for p in series.points()]
        assert final == sorted(final)
