"""Figure reproductions: Figure 2, Figure 3 and Figure 12."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import PredictionConfig, PredictionStage
from ..incidents import (
    IncidentStore,
    category_occurrence_histogram,
    compute_recurrence_stats,
    interval_histogram,
)
from ..llm import SimulatedLLM
from ..vectordb import SimilarityConfig
from .metrics import f1_report
from .reporting import render_bar_chart, render_matrix


# --------------------------------------------------------------------- Fig. 2
@dataclass
class Figure2Result:
    """Recurrence-interval distribution (paper Figure 2)."""

    bins: List[Tuple[float, float]]
    fraction_within_20_days: float

    def render(self) -> str:
        series = [(f"{int(start):>3}d", probability) for start, probability in self.bins]
        chart = render_bar_chart(
            series,
            title="Figure 2: recurring incident proportion vs. time interval (5-day bins)",
        )
        return chart + (
            f"\nrecurrences within 20 days: {self.fraction_within_20_days:.1%}"
        )


def figure2_recurrence(store: IncidentStore, bin_days: float = 5.0) -> Figure2Result:
    """Reproduce Figure 2 from a corpus."""
    stats = compute_recurrence_stats(store.all())
    bins = interval_histogram(stats.intervals_days, bin_days=bin_days, max_days=120.0)
    return Figure2Result(bins=bins, fraction_within_20_days=stats.fraction_within_20_days)


# --------------------------------------------------------------------- Fig. 3
@dataclass
class Figure3Result:
    """Category-occurrence histogram (paper Figure 3)."""

    histogram: Dict[str, int]
    new_category_fraction: float
    total_incidents: int
    total_categories: int

    def render(self) -> str:
        series = [(bucket, float(count)) for bucket, count in self.histogram.items()]
        chart = render_bar_chart(
            series,
            title="Figure 3: distribution of incident category frequency",
            value_format="{:.0f}",
        )
        return chart + (
            f"\nincidents in new categories: {self.new_category_fraction:.2%} "
            f"({self.total_categories} categories over {self.total_incidents} incidents)"
        )


def figure3_category_distribution(store: IncidentStore) -> Figure3Result:
    """Reproduce Figure 3 from a corpus."""
    stats = compute_recurrence_stats(store.all())
    histogram = category_occurrence_histogram(store.all())
    return Figure3Result(
        histogram=histogram,
        new_category_fraction=stats.new_category_fraction,
        total_incidents=stats.total_incidents,
        total_categories=len(store.categories()),
    )


# -------------------------------------------------------------------- Fig. 12
@dataclass
class Figure12Result:
    """K x alpha sensitivity sweep (paper Figure 12a / 12b)."""

    k_values: List[int]
    alpha_values: List[float]
    micro_f1: Dict[Tuple[str, str], float] = field(default_factory=dict)
    macro_f1: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def best(self) -> Tuple[int, float, float]:
        """(K, alpha, micro-F1) of the best combination."""
        best_key = max(self.micro_f1.items(), key=lambda kv: kv[1])[0]
        return int(best_key[0]), float(best_key[1]), self.micro_f1[best_key]

    def render(self) -> str:
        rows = [str(k) for k in self.k_values]
        columns = [f"{a:g}" for a in self.alpha_values]
        micro = render_matrix(
            rows, columns, self.micro_f1,
            title="Figure 12a: micro-F1 by K (rows) and alpha (columns)",
        )
        macro = render_matrix(
            rows, columns, self.macro_f1,
            title="Figure 12b: macro-F1 by K (rows) and alpha (columns)",
        )
        k, alpha, score = self.best()
        return f"{micro}\n\n{macro}\n\nbest: K={k}, alpha={alpha:g} (micro-F1={score:.3f})"


def figure12_k_alpha_sweep(
    train: IncidentStore,
    test: IncidentStore,
    k_values: Sequence[int] = (3, 5, 9, 12, 15),
    alpha_values: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    stage: Optional[PredictionStage] = None,
    update_index: bool = True,
) -> Figure12Result:
    """Reproduce the Figure 12 sensitivity sweep.

    The (expensive) embedding index is built once and reused; every (K, alpha)
    combination re-runs retrieval + prediction on the test incidents against a
    fresh copy of the indexed history so continuous index updates do not leak
    between combinations.
    """
    if stage is None:
        stage = PredictionStage(model=SimulatedLLM(), config=PredictionConfig())
        stage.index_history(train)
    base_index = copy.deepcopy(stage.index)
    base_summaries = dict(stage._summaries)  # noqa: SLF001 - intra-package reuse
    result = Figure12Result(k_values=list(k_values), alpha_values=list(alpha_values))
    labelled_test = test.labelled()
    for k in k_values:
        for alpha in alpha_values:
            stage.index = copy.deepcopy(base_index)
            stage._summaries = dict(base_summaries)  # noqa: SLF001
            # The retrieval protocol carries its own similarity config, so
            # re-parameterizing the sweep needs no rebuild.
            stage.index.similarity = SimilarityConfig(
                alpha=alpha, k=k, diverse_categories=True
            )
            stage.config.k = k
            stage.config.alpha = alpha
            truths: List[str] = []
            predictions: List[str] = []
            for incident in labelled_test:
                predictions.append(stage.predict(incident).label)
                truths.append(incident.category or "")
                if update_index:
                    stage.add_to_index(incident)
            report = f1_report(truths, predictions)
            key = (str(k), f"{alpha:g}")
            result.micro_f1[key] = report.micro_f1
            result.macro_f1[key] = report.macro_f1
    return result
