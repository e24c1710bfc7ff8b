"""Tests for the pipeline configuration, collection stage and prediction stage."""

from __future__ import annotations

import pytest

from repro.cloudsim import TransportService
from repro.core import (
    CollectionConfig,
    CollectionStage,
    ContextSource,
    NoHandlerError,
    NotFittedError,
    PipelineConfig,
    PredictionConfig,
    PredictionStage,
    RCACopilot,
)
from repro.datagen import generate_corpus
from repro.handlers import HandlerRegistry, default_registry
from repro.incidents import IncidentStore
from repro.llm import SimulatedLLM
from repro.telemetry import TelemetryHub


class TestConfig:
    def test_defaults_match_paper(self):
        config = PredictionConfig()
        assert config.k == 5
        assert config.alpha == pytest.approx(0.3)
        assert config.summarize is True
        assert config.context_sources == (ContextSource.SUMMARIZED_DIAGNOSTIC_INFO,)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionConfig(k=0)
        with pytest.raises(ValueError):
            PredictionConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            PredictionConfig(context_sources=())
        with pytest.raises(ValueError):
            PipelineConfig(embedding_backend="word2vec")


class TestCollectionStage:
    def _alert(self, service):
        outcome = service.inject_and_detect("FullDisk")
        assert outcome.primary_alert is not None
        return outcome.primary_alert

    def test_handle_alert_collects(self, warm_service, registry):
        stage = CollectionStage(registry, warm_service.hub)
        alert = self._alert(warm_service)
        outcome = stage.handle_alert(alert)
        assert outcome.collected
        assert outcome.matched_handler
        assert outcome.incident.incident_id.startswith("INC-")

    def test_unmatched_alert_type_degrades(self, warm_service):
        stage = CollectionStage(HandlerRegistry(), warm_service.hub)
        alert = self._alert(warm_service)
        outcome = stage.handle_alert(alert)
        assert not outcome.collected
        assert outcome.matched_handler is None

    def test_unmatched_alert_type_strict_raises(self, warm_service):
        stage = CollectionStage(
            HandlerRegistry(), warm_service.hub, CollectionConfig(strict=True)
        )
        alert = self._alert(warm_service)
        with pytest.raises(NoHandlerError):
            stage.handle_alert(alert)

    def test_incident_ids_unique(self, warm_service, registry):
        stage = CollectionStage(registry, warm_service.hub)
        alert = self._alert(warm_service)
        a = stage.parse_alert(alert)
        b = stage.parse_alert(alert)
        assert a.incident_id != b.incident_id


@pytest.fixture(scope="module")
def fitted_stage():
    """A prediction stage indexed over a small training corpus."""
    store = generate_corpus(
        total_incidents=70, total_categories=20, seed=31, duration_days=90.0
    )
    train, test = store.chronological_split(0.75)
    stage = PredictionStage(model=SimulatedLLM(), config=PredictionConfig())
    stage.index_history(train)
    return stage, train, test


class TestPredictionStage:
    def test_requires_indexing(self):
        stage = PredictionStage(model=SimulatedLLM())
        with pytest.raises(NotFittedError):
            stage.retrieve(next(iter(generate_corpus(20, 11, seed=1, duration_days=30))))
        with pytest.raises(NotFittedError):
            stage.index_history(IncidentStore())

    def test_retrieval_returns_diverse_categories(self, fitted_stage):
        stage, train, test = fitted_stage
        incident = test.all()[0]
        demos = stage.retrieve(incident)
        categories = [d.category for d in demos]
        assert len(demos) <= stage.config.k
        assert len(set(categories)) == len(categories)

    def test_predict_sets_prediction_on_incident(self, fitted_stage):
        stage, train, test = fitted_stage
        incident = test.all()[0]
        outcome = stage.predict(incident)
        assert outcome.label
        assert incident.predicted_category == outcome.label
        assert outcome.elapsed_seconds >= 0.0

    def test_summaries_respect_budget(self, fitted_stage):
        stage, train, _ = fitted_stage
        for incident in train.all()[:10]:
            assert len(incident.summary.split()) <= stage.config.summary_max_words

    def test_build_context_sources(self, fitted_stage):
        stage, _, test = fitted_stage
        incident = test.all()[0]
        stage.config.context_sources = (ContextSource.ALERT_INFO,)
        assert "AlertType" in stage.build_context(incident)
        stage.config.context_sources = (ContextSource.ACTION_OUTPUT,)
        assert "mitigation.suggested" in stage.build_context(incident)
        stage.config.context_sources = (ContextSource.SUMMARIZED_DIAGNOSTIC_INFO,)

    def test_add_to_index_requires_label(self, fitted_stage):
        stage, _, test = fitted_stage
        incident = test.all()[1]
        label = incident.category
        incident.category = None
        with pytest.raises(ValueError):
            stage.add_to_index(incident)
        incident.category = label
        before = len(stage.index)
        stage.add_to_index(incident)
        assert len(stage.index) == before + 1
        # Adding twice is a no-op.
        stage.add_to_index(incident)
        assert len(stage.index) == before + 1


class TestRCACopilotPipeline:
    def test_observe_end_to_end(self):
        service = TransportService(seed=55)
        service.warm_up(hours=0.5)
        copilot = RCACopilot(service.hub)
        history = generate_corpus(
            total_incidents=60, total_categories=18, seed=8, duration_days=80.0
        )
        copilot.index_history(history)
        outcome = service.inject_and_detect("HubPortExhaustion")
        report = copilot.observe(outcome.primary_alert)
        assert report.collection.collected
        assert report.predicted_label
        assert "Predicted root cause category" in report.render()

    def test_diagnose_without_history(self, warm_service):
        copilot = RCACopilot(warm_service.hub)
        outcome = warm_service.inject_and_detect("FullDisk")
        report = copilot.observe(outcome.primary_alert)
        assert report.prediction is None
        assert report.predicted_label == "Unknown"

    def test_record_feedback_relabels(self, warm_service):
        copilot = RCACopilot(warm_service.hub)
        outcome = warm_service.inject_and_detect("DeliveryHang")
        report = copilot.observe(outcome.primary_alert)
        copilot.record_feedback(report.incident, "DeliveryHang")
        assert copilot.history.get(report.incident.incident_id).category == "DeliveryHang"
