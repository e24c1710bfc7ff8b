"""The compared methods of Table 2, behind one common interface.

Every method implements :class:`RcaMethod`: ``fit(train_store)`` then
``predict_many(incidents) -> labels``.  The evaluation harness times ``fit``
and ``predict_many`` to reproduce Table 2's training/inference time columns
and scores the predicted labels against the ground truth for the F1 columns.

Methods:

* ``FastTextBaseline`` — supervised FastText classifier on raw diagnostic text.
* ``XGBoostBaseline`` — gradient-boosted trees on TF-IDF features.
* ``FineTunedGptBaseline`` — simulated fine-tuned GPT (Ahmed et al. [1]).
* ``GptPromptVariant`` — RCACopilot's LLM asked directly, no demonstrations.
* ``GptEmbeddingVariant`` — RCACopilot with the generic hashed embedding
  instead of the incident-trained FastText embedding.
* ``RcaCopilotMethod`` — the full pipeline (default: the GPT-4-class model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

from ..core import ContextSource, PredictionConfig, PredictionStage
from ..embedding import FastTextClassifier, FastTextClassifierConfig
from ..incidents import Incident, IncidentStore
from ..llm import ChatModel, FineTunedModel, FineTuneExample, SimulatedLLM
from .xgboost import GradientBoostingClassifier, GradientBoostingConfig


class RcaMethod(Protocol):
    """Interface shared by every compared method.

    Prediction has one entry point, ``predict_many``: one incident is a
    batch of one, and replays exercise each method's batch path.
    """

    name: str

    def fit(self, train: IncidentStore) -> None:
        """Train / index on the labelled training incidents."""
        ...

    def predict_many(self, incidents: Sequence[Incident]) -> List[str]:
        """Predict the root-cause category label of each incident, in order."""
        ...


def _incident_text(incident: Incident) -> str:
    """Raw text used by the classical baselines (no summarization)."""
    return incident.diagnostic_info() or incident.alert_info()


@dataclass
class FastTextBaseline:
    """Supervised FastText classifier applied directly to the dataset."""

    name: str = "FastText"
    config: Optional[FastTextClassifierConfig] = None

    def __post_init__(self) -> None:
        self._model = FastTextClassifier(self.config)

    def fit(self, train: IncidentStore) -> None:
        labelled = train.labelled()
        self._model.fit(
            [_incident_text(i) for i in labelled],
            [i.category or "" for i in labelled],
        )

    def predict_many(self, incidents: Sequence[Incident]) -> List[str]:
        return self._model.predict_many([_incident_text(i) for i in incidents])


@dataclass
class XGBoostBaseline:
    """Gradient-boosted trees over TF-IDF features."""

    name: str = "XGBoost"
    config: Optional[GradientBoostingConfig] = None

    def __post_init__(self) -> None:
        self._model = GradientBoostingClassifier(self.config)

    def fit(self, train: IncidentStore) -> None:
        labelled = train.labelled()
        self._model.fit(
            [_incident_text(i) for i in labelled],
            [i.category or "" for i in labelled],
        )

    def predict_many(self, incidents: Sequence[Incident]) -> List[str]:
        return list(self._model.predict([_incident_text(i) for i in incidents]))


@dataclass
class FineTunedGptBaseline:
    """Simulated fine-tuned GPT: raw diagnostic text -> label, no prompting."""

    name: str = "Fine-tune GPT"

    def __post_init__(self) -> None:
        self._model = FineTunedModel()

    def fit(self, train: IncidentStore) -> None:
        examples = [
            FineTuneExample(text=_incident_text(i), label=i.category or "")
            for i in train.labelled()
        ]
        self._model.finetune(examples)

    def predict_many(self, incidents: Sequence[Incident]) -> List[str]:
        return [self._model.predict_label(_incident_text(i)) for i in incidents]


class GptPromptVariant:
    """GPT-4 Prompt: direct zero-shot category prediction, no demonstrations."""

    def __init__(self, model: Optional[ChatModel] = None) -> None:
        self.name = "GPT-4 Prompt"
        self._stage = PredictionStage(
            model=model or SimulatedLLM(name="simulated-gpt-4"),
            config=PredictionConfig(
                context_sources=(ContextSource.SUMMARIZED_DIAGNOSTIC_INFO,)
            ),
        )

    def fit(self, train: IncidentStore) -> None:
        # The variant uses no historical demonstrations; nothing to index.
        del train

    def predict_many(self, incidents: Sequence[Incident]) -> List[str]:
        contexts = [self._stage.build_context(incident) for incident in incidents]
        predictions = self._stage.predictor.predict_many([(c, []) for c in contexts])
        return [prediction.label for prediction in predictions]


class RcaCopilotMethod:
    """The full RCACopilot prediction stage."""

    def __init__(
        self,
        model: Optional[ChatModel] = None,
        config: Optional[PredictionConfig] = None,
        name: str = "RCACopilot (GPT-4)",
        update_index: bool = True,
    ) -> None:
        self.name = name
        self.update_index = update_index
        self._stage = PredictionStage(
            model=model or SimulatedLLM(name="simulated-gpt-4"),
            config=config or PredictionConfig(),
        )

    @property
    def stage(self) -> PredictionStage:
        """The underlying prediction stage (exposed for ablations)."""
        return self._stage

    def fit(self, train: IncidentStore) -> None:
        self._stage.index_history(train)

    def predict_many(self, incidents: Sequence[Incident]) -> List[str]:
        """Batch prediction.

        Continuous labelling (``update_index=True``) is order-dependent —
        each prediction's confirmed label becomes history for the next — so
        it keeps the sequential replay; otherwise the whole batch goes
        through the stage's batch pipeline.
        """
        if not self.update_index:
            return [outcome.label for outcome in self._stage.predict_many(incidents)]
        labels = []
        for incident in incidents:
            labels.append(self._stage.predict(incident).label)
            if incident.is_labelled():
                # OCEs label every incident post-investigation; the confirmed
                # label becomes history for subsequent incidents (continuous
                # deployment).
                self._stage.add_to_index(incident)
        return labels


class GptEmbeddingVariant(RcaCopilotMethod):
    """GPT-4 Embed.: full pipeline but with the generic hashed embedding."""

    def __init__(self, model: Optional[ChatModel] = None, update_index: bool = True) -> None:
        self.name = "GPT-4 Embed."
        self.update_index = update_index
        self._stage = PredictionStage(
            model=model or SimulatedLLM(name="simulated-gpt-4"),
            config=PredictionConfig(),
            embedding_backend="hashed",
        )


def default_method_suite() -> List[RcaMethod]:
    """The Table 2 line-up, in the paper's row order."""
    return [
        FastTextBaseline(),
        XGBoostBaseline(),
        FineTunedGptBaseline(),
        GptPromptVariant(),
        GptEmbeddingVariant(),
        RcaCopilotMethod(
            model=SimulatedLLM(name="simulated-gpt-3.5", noise=0.05),
            name="RCACopilot (GPT-3.5)",
        ),
        RcaCopilotMethod(name="RCACopilot (GPT-4)"),
    ]
