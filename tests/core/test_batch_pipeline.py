"""Tests for the end-to-end batch path, the content caches and live feedback.

The refactor's central guarantee: ``predict_many`` / ``diagnose_many``
produce results identical to sequential per-incident calls — same labels,
same neighbour sets, same explanations.  On top of that, recurring incidents
must hit the content-hash summary/embedding caches, and OCE feedback must
reach the live index without a rebuild.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.core import (
    CollectionConfig,
    CollectionStage,
    PredictionConfig,
    PredictionStage,
    RCACopilot,
)
from repro.datagen import generate_corpus
from repro.handlers import default_registry
from repro.llm import SimulatedLLM
from repro.telemetry import TelemetryHub


@pytest.fixture(scope="module")
def parity_setup():
    """An indexed stage plus a batch of test incidents with recurrences."""
    corpus = generate_corpus(
        total_incidents=90, total_categories=24, seed=77, duration_days=120.0
    )
    train, test = corpus.chronological_split(0.7)
    stage = PredictionStage(model=SimulatedLLM(), config=PredictionConfig())
    stage.index_history(train)
    bases = test.labelled()[:12]
    batch = []
    for occurrence in range(2):
        for index, base in enumerate(bases):
            batch.append(
                replace(
                    base,
                    incident_id=f"INC-LIVE-{occurrence:02d}-{index:03d}",
                    summary="",
                    predicted_category=None,
                    explanation="",
                )
            )
    return stage, batch


class TestBatchSequentialParity:
    def test_predict_many_matches_sequential_predict(self, parity_setup):
        stage, batch = parity_setup
        sequential_stage = copy.deepcopy(stage)
        batch_stage = copy.deepcopy(stage)
        sequential_incidents = copy.deepcopy(batch)
        batch_incidents = copy.deepcopy(batch)

        sequential = [sequential_stage.predict(i) for i in sequential_incidents]
        batched = batch_stage.predict_many(batch_incidents)

        assert [o.label for o in batched] == [o.label for o in sequential]
        assert [[n.incident_id for n in o.neighbors] for o in batched] == [
            [n.incident_id for n in o.neighbors] for o in sequential
        ]
        for batched_outcome, sequential_outcome in zip(batched, sequential):
            assert [n.similarity for n in batched_outcome.neighbors] == pytest.approx(
                [n.similarity for n in sequential_outcome.neighbors]
            )
        assert [o.prediction.explanation for o in batched] == [
            o.prediction.explanation for o in sequential
        ]
        assert [o.summary for o in batched] == [o.summary for o in sequential]

    def test_diagnose_many_matches_sequential_diagnose(self, parity_setup):
        stage, batch = parity_setup
        del stage

        def build_copilot():
            copilot = RCACopilot(TelemetryHub(), registry=default_registry())
            history = generate_corpus(
                total_incidents=90, total_categories=24, seed=77, duration_days=120.0
            ).chronological_split(0.7)[0]
            copilot.index_history(history)
            return copilot

        sequential_copilot = build_copilot()
        batch_copilot = build_copilot()
        sequential_incidents = copy.deepcopy(batch)
        batch_incidents = copy.deepcopy(batch)

        sequential = [sequential_copilot.diagnose(i) for i in sequential_incidents]
        batched = batch_copilot.diagnose_many(batch_incidents)

        assert [r.predicted_label for r in batched] == [
            r.predicted_label for r in sequential
        ]
        assert [
            [n.incident_id for n in r.prediction.neighbors] for r in batched
        ] == [[n.incident_id for n in r.prediction.neighbors] for r in sequential]

    def test_empty_batch(self, parity_setup):
        stage, _ = parity_setup
        assert stage.predict_many([]) == []
        copilot = RCACopilot(TelemetryHub())
        assert copilot.diagnose_many([]) == []


class TestContentCaches:
    def test_recurring_incidents_hit_caches(self, parity_setup):
        stage, batch = parity_setup
        stage = copy.deepcopy(stage)
        incidents = copy.deepcopy(batch)
        baseline = copy.deepcopy(stage.cache_stats)
        stage.predict_many(incidents)
        stats = stage.cache_stats
        # 12 distinct diagnostics repeated twice: the second occurrence of
        # each must hit both caches (index-time entries may add more hits).
        assert stats.embedding_hits - baseline.embedding_hits >= 12
        assert stats.summary_hits - baseline.summary_hits >= 12
        new_embedding_misses = stats.embedding_misses - baseline.embedding_misses
        assert new_embedding_misses <= 12

    def test_sequential_recurrence_hits_caches_too(self, parity_setup):
        stage, batch = parity_setup
        stage = copy.deepcopy(stage)
        first, second = copy.deepcopy(batch[0]), copy.deepcopy(batch[12])
        assert first.diagnostic_info() == second.diagnostic_info()
        stage.predict(first)
        before = copy.deepcopy(stage.cache_stats)
        stage.predict(second)
        assert stage.cache_stats.embedding_hits == before.embedding_hits + 1
        assert stage.cache_stats.embedding_misses == before.embedding_misses

    def test_cache_stats_count_a_diagnosed_batch(self, parity_setup):
        _, batch = parity_setup
        copilot = RCACopilot(TelemetryHub(), registry=default_registry())
        history = generate_corpus(
            total_incidents=60, total_categories=18, seed=5, duration_days=90.0
        )
        copilot.index_history(history)
        before = copy.deepcopy(copilot.prediction.cache_stats)
        copilot.diagnose_many(copy.deepcopy(batch[:4]))
        stats = copilot.prediction.cache_stats
        assert list(stats.as_dict()) == [
            "summary_hits",
            "summary_misses",
            "embedding_hits",
            "embedding_misses",
        ]
        lookups = stats.embedding_hits + stats.embedding_misses
        assert lookups == before.embedding_hits + before.embedding_misses + 4

    def test_indexing_diagnosis_and_feedback_leave_an_empty_hub_empty(
        self, parity_setup
    ):
        _, batch = parity_setup
        hub = TelemetryHub()
        copilot = RCACopilot(hub, registry=default_registry())
        copilot.index_history(
            generate_corpus(
                total_incidents=60, total_categories=18, seed=5, duration_days=90.0
            )
        )
        reports = copilot.diagnose_many(copy.deepcopy(batch[:4]))
        copilot.record_feedback(reports[0].incident, "ConfirmedCategory")
        assert copilot.prediction.cache_stats.embedding_misses > 0
        assert hub.metrics.metric_names() == []
        assert list(hub.logs) == []
        stores = (hub.metrics, hub.logs, hub.events, hub.traces)
        assert [store.writes for store in stores] == [0] * 4


class TestLiveFeedback:
    def _copilot(self):
        copilot = RCACopilot(TelemetryHub(), registry=default_registry())
        history = generate_corpus(
            total_incidents=60, total_categories=18, seed=5, duration_days=90.0
        )
        copilot.index_history(history)
        return copilot

    def test_feedback_adds_new_incident_to_live_index(self, parity_setup):
        _, batch = parity_setup
        copilot = self._copilot()
        incident = copy.deepcopy(batch[0])
        copilot.diagnose(incident)
        assert incident.incident_id not in copilot.prediction.index
        copilot.record_feedback(incident, "ConfirmedCategory")
        assert incident.incident_id in copilot.prediction.index
        entry = copilot.prediction.index.get(incident.incident_id)
        assert entry.category == "ConfirmedCategory"

    def test_feedback_corrects_indexed_category_in_place(self, parity_setup):
        _, batch = parity_setup
        copilot = self._copilot()
        incident = copy.deepcopy(batch[1])
        copilot.diagnose(incident)
        copilot.record_feedback(incident, "FirstLabel")
        copilot.record_feedback(incident, "CorrectedLabel")
        entry = copilot.prediction.index.get(incident.incident_id)
        assert entry.category == "CorrectedLabel"
        assert copilot.history.get(incident.incident_id).category == "CorrectedLabel"

    def test_feedback_makes_incident_retrievable(self, parity_setup):
        _, batch = parity_setup
        copilot = self._copilot()
        incident = copy.deepcopy(batch[2])
        copilot.diagnose(incident)
        copilot.record_feedback(incident, "FeedbackCategory")
        recurrence = replace(
            copy.deepcopy(incident),
            incident_id="INC-LIVE-RECUR-001",
            category=None,
            summary="",
        )
        report = copilot.diagnose(recurrence)
        neighbor_ids = [n.incident_id for n in report.prediction.neighbors]
        assert incident.incident_id in neighbor_ids


class TestOwningTeamConfig:
    def test_default_owning_team_from_config(self, warm_service, registry):
        stage = CollectionStage(
            registry,
            warm_service.hub,
            CollectionConfig(default_owning_team="Storage"),
        )
        outcome = warm_service.inject_and_detect("FullDisk")
        incident = stage.parse_alert(outcome.primary_alert)
        assert incident.owning_team == "Storage"
        # An explicit argument still wins over the configured default.
        override = stage.parse_alert(outcome.primary_alert, owning_team="Networking")
        assert override.owning_team == "Networking"

    def test_copilot_observe_uses_configured_team(self, warm_service):
        from repro.core import PipelineConfig

        config = PipelineConfig(
            collection=CollectionConfig(default_owning_team="Directory")
        )
        copilot = RCACopilot(warm_service.hub, config=config)
        outcome = warm_service.inject_and_detect("DeliveryHang")
        report = copilot.observe(outcome.primary_alert)
        assert report.incident.owning_team == "Directory"
