"""Table reproductions: Table 1, Table 2 and Table 3."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines import default_method_suite
from ..baselines.methods import RcaCopilotMethod, RcaMethod
from ..cloudsim import TABLE1_SCENARIOS
from ..core import ContextSource, PredictionConfig
from ..incidents import IncidentStore
from ..llm import SimulatedLLM
from .experiment import MethodResult, evaluate_method, evaluate_methods
from .reporting import render_table


# -------------------------------------------------------------------- Table 1
def table1_scenarios() -> str:
    """Render the Table 1 scenario catalogue."""
    headers = ["No.", "Sev.", "Scope", "Category", "Occur.", "Symptom", "Cause"]
    rows = []
    for scenario in TABLE1_SCENARIOS:
        row = scenario.as_table_row()
        rows.append([row[h] for h in headers])
    return render_table(headers, rows, title="Table 1: example incident categories")


# -------------------------------------------------------------------- Table 2
@dataclass
class Table2Result:
    """Method comparison (paper Table 2)."""

    results: List[MethodResult] = field(default_factory=list)

    def result_for(self, method_name: str) -> Optional[MethodResult]:
        for result in self.results:
            if result.method == method_name:
                return result
        return None

    def render(self) -> str:
        headers = ["Method", "Micro-F1", "Macro-F1", "Train (s)", "Infer (s/incident)"]
        rows = [
            [
                result.method,
                f"{result.micro_f1:.3f}",
                f"{result.macro_f1:.3f}",
                f"{result.train_seconds:.3f}",
                f"{result.infer_seconds_per_incident:.3f}",
            ]
            for result in self.results
        ]
        return render_table(headers, rows, title="Table 2: effectiveness of different methods")


def table2_method_comparison(
    train: IncidentStore,
    test: IncidentStore,
    methods: Optional[Sequence[RcaMethod]] = None,
) -> Table2Result:
    """Reproduce Table 2 on a train/test split."""
    suite = list(methods) if methods is not None else default_method_suite()
    return Table2Result(results=evaluate_methods(suite, train, test))


# -------------------------------------------------------------------- Table 3
#: The seven prompt-context configurations of Table 3, in the paper's row order.
TABLE3_CONFIGURATIONS: List[Tuple[str, Tuple[ContextSource, ...], bool]] = [
    ("DiagnosticInfo", (ContextSource.DIAGNOSTIC_INFO,), False),
    ("DiagnosticInfo (summarized)", (ContextSource.SUMMARIZED_DIAGNOSTIC_INFO,), True),
    ("AlertInfo", (ContextSource.ALERT_INFO,), False),
    (
        "AlertInfo + DiagnosticInfo",
        (ContextSource.ALERT_INFO, ContextSource.DIAGNOSTIC_INFO),
        False,
    ),
    (
        "AlertInfo + ActionOutput",
        (ContextSource.ALERT_INFO, ContextSource.ACTION_OUTPUT),
        False,
    ),
    (
        "DiagnosticInfo + ActionOutput",
        (ContextSource.DIAGNOSTIC_INFO, ContextSource.ACTION_OUTPUT),
        False,
    ),
    (
        "AlertInfo + DiagnosticInfo + ActionOutput",
        (
            ContextSource.ALERT_INFO,
            ContextSource.DIAGNOSTIC_INFO,
            ContextSource.ACTION_OUTPUT,
        ),
        False,
    ),
]


@dataclass
class Table3Result:
    """Prompt-context ablation (paper Table 3)."""

    results: Dict[str, MethodResult] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Prompt context", "Micro-F1", "Macro-F1"]
        rows = [
            [name, f"{result.micro_f1:.3f}", f"{result.macro_f1:.3f}"]
            for name, result in self.results.items()
        ]
        return render_table(
            headers, rows, title="Table 3: effectiveness of different prompt contexts"
        )


def table3_context_ablation(
    train: IncidentStore,
    test: IncidentStore,
    configurations: Optional[Sequence[Tuple[str, Tuple[ContextSource, ...], bool]]] = None,
) -> Table3Result:
    """Reproduce Table 3 by re-running the pipeline with each context config."""
    configurations = list(configurations or TABLE3_CONFIGURATIONS)
    results: Dict[str, MethodResult] = {}
    for name, sources, summarize in configurations:
        method = RcaCopilotMethod(
            model=SimulatedLLM(name="simulated-gpt-4"),
            config=PredictionConfig(context_sources=sources, summarize=summarize),
            name=f"RCACopilot [{name}]",
        )
        results[name] = evaluate_method(method, train, test)
    return Table3Result(results=results)
