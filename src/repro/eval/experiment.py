"""Experiment runners: train/evaluate methods with timing (Table 2 harness)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines.methods import RcaMethod
from ..incidents import Incident, IncidentStore
from .metrics import F1Report, f1_report


@dataclass
class MethodResult:
    """Evaluation result of one method on one split."""

    method: str
    report: F1Report
    train_seconds: float
    infer_seconds_per_incident: float
    predictions: List[str] = field(default_factory=list)
    truths: List[str] = field(default_factory=list)

    @property
    def micro_f1(self) -> float:
        """Micro-F1 shortcut."""
        return self.report.micro_f1

    @property
    def macro_f1(self) -> float:
        """Macro-F1 shortcut."""
        return self.report.macro_f1


def evaluate_method(
    method: RcaMethod, train: IncidentStore, test: IncidentStore
) -> MethodResult:
    """Train a method on the training store and score it on the test store.

    The test split is replayed through the method's one entry point,
    ``predict_many``, so the full batch pipeline — batch embedding, one
    matrix–matrix retrieval pass, deduplicated LLM batch — is what gets
    timed.
    """
    labelled_test = test.labelled()
    train_started = time.perf_counter()
    method.fit(train)
    train_seconds = time.perf_counter() - train_started

    truths: List[str] = [incident.category or "" for incident in labelled_test]
    infer_started = time.perf_counter()
    predictions: List[str] = list(method.predict_many(labelled_test))
    infer_seconds = time.perf_counter() - infer_started
    per_incident = infer_seconds / len(labelled_test) if labelled_test else 0.0
    return MethodResult(
        method=method.name,
        report=f1_report(truths, predictions),
        train_seconds=train_seconds,
        infer_seconds_per_incident=per_incident,
        predictions=predictions,
        truths=truths,
    )


def evaluate_methods(
    methods: Sequence[RcaMethod], train: IncidentStore, test: IncidentStore
) -> List[MethodResult]:
    """Evaluate several methods on the same split."""
    return [evaluate_method(method, train, test) for method in methods]


@dataclass
class RoundsResult:
    """Trustworthiness experiment: the same method over several rounds."""

    method: str
    rounds: List[MethodResult]

    @property
    def micro_f1_values(self) -> List[float]:
        return [r.micro_f1 for r in self.rounds]

    @property
    def macro_f1_values(self) -> List[float]:
        return [r.macro_f1 for r in self.rounds]

    @property
    def min_micro_f1(self) -> float:
        return min(self.micro_f1_values) if self.rounds else 0.0


def run_rounds(
    method_factory,
    train: IncidentStore,
    test: IncidentStore,
    rounds: int = 3,
) -> RoundsResult:
    """Run a freshly constructed method for several rounds (Section 5.6).

    ``method_factory(round_index)`` must return a new method instance; the
    instability between rounds comes from each instance's own stochastic
    components (e.g. the simulated model's noise).
    """
    results: List[MethodResult] = []
    name = ""
    for round_index in range(rounds):
        method = method_factory(round_index)
        name = method.name
        results.append(evaluate_method(method, train, test))
    return RoundsResult(method=name, rounds=results)


@dataclass
class TimingBreakdown:
    """Per-stage timing of the full pipeline on a sample of incidents."""

    collection_seconds: float
    summarization_seconds: float
    retrieval_seconds: float
    prediction_seconds: float
