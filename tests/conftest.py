"""Shared fixtures for the test suite.

Expensive artefacts (corpora, fitted embedders, running simulators) are
session-scoped so the suite stays fast while still exercising real objects.
"""

from __future__ import annotations

import pytest

from repro.cloudsim import TransportService
from repro.datagen import CorpusConfig, CorpusGenerator, generate_corpus
from repro.handlers import default_registry
from repro.incidents import IncidentStore
from repro.telemetry import TelemetryHub


@pytest.fixture(scope="session")
def tiny_corpus() -> IncidentStore:
    """A very small corpus for unit tests that just need labelled incidents."""
    return generate_corpus(
        total_incidents=40, total_categories=12, seed=11, duration_days=60.0
    )


@pytest.fixture(scope="session")
def small_corpus() -> IncidentStore:
    """A small-but-realistic corpus for retrieval / pipeline tests."""
    return generate_corpus(
        total_incidents=90, total_categories=25, seed=23, duration_days=120.0
    )


@pytest.fixture(scope="session")
def corpus_split(small_corpus):
    """(train, test) chronological split of the small corpus."""
    return small_corpus.chronological_split(0.75)


@pytest.fixture()
def hub() -> TelemetryHub:
    """A fresh, empty telemetry hub."""
    return TelemetryHub()


@pytest.fixture(scope="session")
def warm_service() -> TransportService:
    """A Transport simulation warmed up with background traffic."""
    service = TransportService(seed=101)
    service.warm_up(hours=1.0)
    return service


@pytest.fixture(scope="session")
def registry():
    """The built-in handler registry."""
    return default_registry()
