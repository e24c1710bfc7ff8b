"""Integration tests: the full two-stage pipeline over the simulator and corpus."""

from __future__ import annotations

import pytest

from repro.cloudsim import TransportService
from repro.core import PredictionConfig, PredictionStage, RCACopilot
from repro.datagen import generate_corpus
from repro.eval import f1_report
from repro.llm import SimulatedLLM


@pytest.fixture(scope="module")
def pipeline_corpus():
    """A compact corpus large enough for meaningful end-to-end accuracy."""
    return generate_corpus(
        total_incidents=140, total_categories=35, seed=41, duration_days=150.0
    )


class TestEndToEndPrediction:
    def test_pipeline_beats_trivial_baselines_on_recurring_categories(self, pipeline_corpus):
        train, test = pipeline_corpus.chronological_split(0.75)
        stage = PredictionStage(model=SimulatedLLM(), config=PredictionConfig())
        stage.index_history(train)
        truths, predictions = [], []
        for incident in test.labelled():
            predictions.append(stage.predict(incident).label)
            truths.append(incident.category or "")
            stage.add_to_index(incident)
        report = f1_report(truths, predictions)
        # Majority-class baseline on this split scores well under 0.2; the
        # pipeline must do substantially better on recurring categories.
        assert report.micro_f1 > 0.35
        labelled = [t for t in truths]
        majority = max(set(labelled), key=labelled.count)
        majority_report = f1_report(truths, [majority] * len(truths))
        assert report.micro_f1 > majority_report.micro_f1

    def test_predictions_only_use_known_or_new_labels(self, pipeline_corpus):
        train, test = pipeline_corpus.chronological_split(0.75)
        stage = PredictionStage(model=SimulatedLLM(), config=PredictionConfig())
        stage.index_history(train)
        known = set(train.categories())
        for incident in test.labelled()[:20]:
            outcome = stage.predict(incident)
            if not outcome.prediction.is_unseen:
                assert outcome.label in known or outcome.label in stage.index.categories()


class TestSimulatorToPrediction:
    def test_alert_to_explained_prediction(self):
        service = TransportService(seed=71)
        service.warm_up(hours=0.5)
        copilot = RCACopilot(service.hub)
        history = generate_corpus(
            total_incidents=80, total_categories=22, seed=13, duration_days=100.0
        )
        copilot.index_history(history)
        for category in ("HubPortExhaustion", "FullDisk"):
            outcome = service.inject_and_detect(category)
            assert outcome.primary_alert is not None
            report = copilot.observe(outcome.primary_alert)
            assert report.collection.collected
            assert report.prediction is not None
            assert report.explanation
            rendered = report.render()
            assert report.incident.incident_id in rendered

    def test_unseen_incident_gets_new_category_label(self):
        """The Section 5.3 case: an incident type absent from history."""
        service = TransportService(seed=99)
        service.warm_up(hours=0.5)
        copilot = RCACopilot(service.hub)
        history = generate_corpus(
            total_incidents=60, total_categories=16, seed=17, duration_days=90.0
        )
        # Remove every FullDisk incident from history so the category is unseen.
        from repro.incidents import IncidentStore

        filtered = IncidentStore(
            [i for i in history if i.category not in ("FullDisk",)]
        )
        copilot.index_history(filtered)
        outcome = service.inject_and_detect("FullDisk")
        report = copilot.observe(outcome.primary_alert)
        assert report.prediction is not None
        # Either the model flags it as unseen with a fresh label, or it maps it
        # onto a lexically close disk/IO category - both are acceptable
        # behaviours; what must not happen is an empty label.
        assert report.predicted_label
