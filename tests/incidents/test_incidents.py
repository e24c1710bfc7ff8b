"""Tests for incident models, the store, the life-cycle, and recurrence analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.incidents import (
    DiagnosticReport,
    Incident,
    IncidentLifecycle,
    IncidentStage,
    IncidentStore,
    LifecycleError,
    SECONDS_PER_DAY,
    Severity,
    category_occurrence_histogram,
    compute_recurrence_stats,
    incidents_in_new_categories,
    interval_histogram,
    recurrence_intervals_days,
)
from repro.monitors import Alert, AlertScope


def make_incident(iid="INC-1", day=1.0, category="CatA", alert_type="DiskSpaceLow"):
    return Incident(
        incident_id=iid,
        title="t",
        created_at=day * SECONDS_PER_DAY,
        alert_type=alert_type,
        scope=AlertScope.FOREST,
        severity=Severity.SEV2,
        forest="forest-01",
        alert_message="something broke",
        category=category,
    )


class TestIncidentModel:
    def test_from_alert(self):
        alert = Alert(
            alert_id="a1",
            alert_type="DiskSpaceLow",
            scope=AlertScope.MACHINE,
            timestamp=100.0,
            machine="m1",
            forest="f1",
            message="disk full",
            severity=2,
        )
        incident = Incident.from_alert("INC-9", alert)
        assert incident.alert_type == "DiskSpaceLow"
        assert incident.machine == "m1"
        assert incident.severity is Severity.SEV2
        assert "disk full" in incident.alert_info()

    def test_diagnostic_report_rendering(self):
        report = DiagnosticReport()
        assert report.is_empty()
        report.add("Probe", "failed twice", source="probe")
        assert not report.is_empty()
        assert "== Probe ==" in report.render()
        assert len(report) == 1

    def test_best_text_preference_order(self):
        incident = make_incident()
        assert incident.best_text() == incident.alert_info()
        incident.diagnostic.add("Logs", "errors here")
        assert incident.best_text() == incident.diagnostic_info()
        incident.summary = "short summary"
        assert incident.best_text() == "short summary"

    def test_action_output_info(self):
        incident = make_incident()
        assert incident.action_output_info() == ""
        incident.action_output = {"b": "2", "a": "1"}
        assert incident.action_output_info().splitlines() == ["a: 1", "b: 2"]

    def test_created_day(self):
        assert make_incident(day=3.0).created_day == pytest.approx(3.0)


class TestIncidentStore:
    def test_add_and_lookup(self):
        store = IncidentStore()
        store.add(make_incident("INC-1"))
        assert "INC-1" in store
        assert store.get("INC-1") is not None
        assert store.get("INC-404") is None

    def test_duplicate_id_rejected(self):
        store = IncidentStore([make_incident("INC-1")])
        with pytest.raises(ValueError):
            store.add(make_incident("INC-1"))

    def test_chronological_iteration(self):
        store = IncidentStore()
        store.add(make_incident("INC-2", day=5.0))
        store.add(make_incident("INC-1", day=1.0))
        assert [i.incident_id for i in store] == ["INC-1", "INC-2"]

    def test_category_and_alert_type_indices(self):
        store = IncidentStore(
            [
                make_incident("INC-1", category="A", alert_type="X"),
                make_incident("INC-2", category="B", alert_type="X"),
                make_incident("INC-3", category="A", alert_type="Y"),
            ]
        )
        assert store.categories() == ["A", "B"]
        assert len(store.by_category("A")) == 2
        assert len(store.by_alert_type("X")) == 2
        assert store.category_counts() == {"A": 2, "B": 1}

    def test_between_and_before(self):
        store = IncidentStore([make_incident(f"INC-{i}", day=float(i)) for i in range(1, 6)])
        assert len(store.between(2 * SECONDS_PER_DAY, 4 * SECONDS_PER_DAY)) == 3
        assert len(store.before(3 * SECONDS_PER_DAY)) == 2

    def test_relabel(self):
        store = IncidentStore([make_incident("INC-1", category="A")])
        store.relabel("INC-1", "B")
        assert store.by_category("B")
        assert not store.by_category("A")
        with pytest.raises(KeyError):
            store.relabel("INC-404", "C")

    def test_chronological_split_sizes(self):
        store = IncidentStore([make_incident(f"INC-{i}", day=float(i)) for i in range(20)])
        train, test = store.chronological_split(0.75)
        assert len(train) == 15 and len(test) == 5
        assert max(i.created_at for i in train) <= min(i.created_at for i in test)

    def test_split_invalid_fraction(self):
        store = IncidentStore([make_incident("INC-1")])
        with pytest.raises(ValueError):
            store.chronological_split(1.5)


class TestLifecycle:
    def test_normal_progression(self):
        lifecycle = IncidentLifecycle("INC-1")
        lifecycle.triage(at=10.0, team="Transport")
        lifecycle.start_diagnosis(at=20.0)
        lifecycle.start_mitigation(at=30.0, action="restart")
        lifecycle.resolve(at=40.0)
        assert lifecycle.is_resolved
        assert lifecycle.time_to_resolve() == 40.0
        assert lifecycle.duration(IncidentStage.DIAGNOSING) == 10.0

    def test_illegal_transition(self):
        lifecycle = IncidentLifecycle("INC-1")
        with pytest.raises(LifecycleError):
            lifecycle.resolve(at=10.0)

    def test_time_cannot_go_backwards(self):
        lifecycle = IncidentLifecycle("INC-1")
        lifecycle.triage(at=10.0)
        with pytest.raises(LifecycleError):
            lifecycle.start_diagnosis(at=5.0)

    def test_unresolved_durations(self):
        lifecycle = IncidentLifecycle("INC-1")
        assert lifecycle.time_to_resolve() is None
        assert lifecycle.duration(IncidentStage.DETECTED) is None


class TestRecurrence:
    def test_intervals_within_category_only(self):
        incidents = [
            make_incident("INC-1", day=1.0, category="A"),
            make_incident("INC-2", day=3.0, category="A"),
            make_incident("INC-3", day=10.0, category="B"),
        ]
        intervals = recurrence_intervals_days(incidents)
        assert intervals == [2.0]

    def test_stats_counts_new_categories(self):
        incidents = [
            make_incident("INC-1", day=1.0, category="A"),
            make_incident("INC-2", day=2.0, category="A"),
            make_incident("INC-3", day=3.0, category="B"),
        ]
        stats = compute_recurrence_stats(incidents)
        assert stats.total_incidents == 3
        assert stats.new_category_incidents == 2
        assert stats.recurring_incidents == 1
        assert stats.new_category_fraction == pytest.approx(2 / 3)

    def test_interval_histogram_probabilities_sum_to_at_most_one(self):
        bins = interval_histogram([1.0, 2.0, 30.0, 200.0], bin_days=5.0, max_days=100.0)
        total = sum(p for _, p in bins)
        assert 0.0 <= total <= 1.0

    def test_interval_histogram_invalid_bin(self):
        with pytest.raises(ValueError):
            interval_histogram([1.0], bin_days=0.0)

    def test_category_occurrence_histogram_buckets(self):
        incidents = [make_incident(f"INC-{i}", category="A") for i in range(12)]
        incidents.append(make_incident("INC-x", category="B"))
        histogram = category_occurrence_histogram(incidents, cap=10)
        assert histogram[">=10"] == 1
        assert histogram["1"] == 1

    def test_incidents_in_new_categories_returns_first_of_each(self):
        incidents = [
            make_incident("INC-1", day=2.0, category="A"),
            make_incident("INC-0", day=1.0, category="A"),
            make_incident("INC-3", day=3.0, category="B"),
        ]
        firsts = incidents_in_new_categories(incidents)
        assert [i.incident_id for i in firsts] == ["INC-0", "INC-3"]

    @given(
        st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]), st.floats(min_value=0, max_value=300)),
            min_size=1,
            max_size=40,
        )
    )
    def test_recurring_plus_new_equals_total(self, pairs):
        incidents = [
            make_incident(f"INC-{i}", day=day, category=cat)
            for i, (cat, day) in enumerate(pairs)
        ]
        stats = compute_recurrence_stats(incidents)
        assert stats.new_category_incidents + stats.recurring_incidents == stats.total_incidents
        assert 0.0 <= stats.fraction_within_20_days <= 1.0
