"""Determinism of the seeded inputs."""

import numpy as np

from bench import loadgen
from bench.loadgen import SMOKE


def _traffic_digest(seed):
    traffic = loadgen.cloudsim_traffic(seed, lead_slots=2, slots=4)
    digest = loadgen.InputDigest()
    digest.add_alerts(traffic.lead_alerts)
    digest.add_alerts(traffic.alerts)
    return digest.hexdigest(), traffic


def test_traffic_is_a_function_of_the_seed():
    first, traffic = _traffic_digest(5)
    again, _ = _traffic_digest(5)
    other, _ = _traffic_digest(6)
    assert first == again != other
    assert traffic.alerts and traffic.lead_alerts
    assert all(loadgen.Traffic.truth(alert) for alert in traffic.alerts)


def test_burst_recordings_hold_every_alert_once_and_label_feedback():
    _, traffic = _traffic_digest(5)
    alerts = (traffic.lead_alerts + traffic.alerts)[:40]
    recordings = loadgen.burst_recordings(alerts, 5, SMOKE, round_alerts=16)
    assert len(recordings) == 2
    assert [e.alert for r in recordings for e in r.alerts] == alerts[:32]
    feedbacks = [e for r in recordings for e in r.feedbacks]
    assert len({e.incident.incident_id for e in feedbacks}) == len(feedbacks)
    assert all(e.category == loadgen.CATEGORY_OF_ALERT_TYPE[e.incident.alert_type] for e in feedbacks)
    same = loadgen.burst_recordings(alerts, 5, SMOKE, round_alerts=16)
    assert [r.dumps() for r in same] == [r.dumps() for r in recordings]


def test_paced_schedule_offers_exactly_rate_times_seconds():
    schedule = loadgen.paced_schedule(3, rate=30.0, seconds=4.0)
    assert len(schedule) == 120
    assert schedule == sorted(schedule) and 0.0 <= schedule[0] and schedule[-1] < 4.0
    assert schedule == loadgen.paced_schedule(3, 30.0, 4.0) != loadgen.paced_schedule(4, 30.0, 4.0)


def test_churn_waves_do_not_depend_on_how_many_ran_before():
    inputs = loadgen.ChurnInputs(9, SMOKE)
    later = loadgen.ChurnInputs(9, SMOKE)
    later.wave(0), later.wave(1)
    first, second = inputs.wave(2), later.wave(2)
    assert first.entries.ids == second.entries.ids
    assert np.array_equal(first.entries.vectors, second.entries.vectors)
    assert first.relabel_ids == second.relabel_ids
    assert first.entries.ids[0] == f"E-{inputs.entries_before(2):07d}"
    # each wave appends the next slice of the timeline; queries sit at its head
    assert all(inputs.head_day(2) <= day < inputs.head_day(3) for day in first.entries.days)
    assert set(first.query_days) == {inputs.head_day(3)}
    assert not np.array_equal(
        first.entries.vectors, loadgen.ChurnInputs(10, SMOKE).wave(2).entries.vectors
    )
    norms = np.linalg.norm(first.entries.vectors, axis=1)
    assert np.allclose(norms, loadgen.VECTOR_NORM)


def test_backfill_queries_are_fresh_copies_of_history():
    inputs = loadgen.BackfillInputs(2, SMOKE)
    seen = set()
    for _ in range(len(inputs.sources) // SMOKE.backfill_batch):
        sources, queries = inputs.next_batch()
        for source, query in zip(sources, queries):
            assert query is not source and query.incident_id != source.incident_id
            assert query.diagnostic is source.diagnostic and query.summary == ""
            seen.add(source.incident_id)
    assert len(seen) == len(inputs.sources)  # one pass touches every incident once
