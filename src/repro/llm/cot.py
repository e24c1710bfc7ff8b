"""Few-shot chain-of-thought root-cause prediction (Section 4.2.4).

Wraps the prediction prompt construction, model call, and completion parsing
into one predictor: given the incoming incident's (summarized) diagnostic
text and the retrieved neighbour demonstrations, it returns the predicted
category, whether the incident is unseen, a possibly newly generated label,
and the model's explanation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .model import ChatMessage, ChatModel
from .prompts import (
    Demonstration,
    ParsedPrediction,
    build_direct_prediction_prompt,
    build_prediction_prompt,
    parse_direct_prediction,
    parse_prediction,
)


@dataclass
class CategoryPrediction:
    """The prediction stage's final output for one incident."""

    category: Optional[str]
    is_unseen: bool
    new_category: Optional[str]
    explanation: str
    chosen_letter: str
    demonstrations: List[Demonstration]

    @property
    def label(self) -> str:
        """The label reported to OCEs: a known category or the new one."""
        if self.category:
            return self.category
        if self.new_category:
            return self.new_category
        return "Unseen"


def prompt_key(incident_text: str, demonstrations: Sequence[Demonstration]) -> Tuple:
    """One prompt's dedup identity within a prediction batch."""
    return (
        incident_text,
        tuple((d.incident_id, d.summary, d.category, d.similarity) for d in demonstrations),
    )


def fan_out_prediction(
    shared: CategoryPrediction, demonstrations: Sequence[Demonstration]
) -> CategoryPrediction:
    """A deduplicated item's prediction, carrying its own demonstrations."""
    return replace(shared, demonstrations=list(demonstrations))


class ChainOfThoughtPredictor:
    """Few-shot CoT predictor over retrieved demonstrations."""

    def __init__(self, model: ChatModel, temperature: float = 0.0) -> None:
        self.model = model
        self.temperature = temperature

    def _deterministic(self) -> bool:
        """Whether identical prompts are guaranteed identical completions."""
        return self.temperature == 0.0 and getattr(self.model, "noise", 0.0) == 0.0

    def predict_many(
        self, items: Sequence[Tuple[str, Sequence[Demonstration]]]
    ) -> List[CategoryPrediction]:
        """Predict categories for a batch of (incident_text, demonstrations).

        The one place a prediction prompt is built, completed and parsed;
        a single incident is a batch of one.  An item with an empty
        demonstration list gets the direct (zero-shot) prompt — the GPT-4
        Prompt variant of Table 2.

        Recurring incidents — identical context with identical neighbour
        demonstrations — are collapsed to one prompt build, one completion
        and one parse when the model is deterministic (temperature 0, no
        simulated noise), mirroring the request deduplication of a real
        batched serving endpoint.  The remaining distinct prompts are
        completed through the model's batch interface in input order.
        """
        dedup = self._deterministic()
        unique_index: dict = {}
        unique_items: List[Tuple[str, Sequence[Demonstration]]] = []
        item_of: List[int] = []
        for incident_text, demonstrations in items:
            if dedup:
                key = prompt_key(incident_text, demonstrations)
                position = unique_index.get(key)
                if position is None:
                    position = len(unique_items)
                    unique_index[key] = position
                    unique_items.append((incident_text, demonstrations))
                item_of.append(position)
            else:
                item_of.append(len(unique_items))
                unique_items.append((incident_text, demonstrations))

        fewshot_indices: List[int] = []
        fewshot_prompts = []
        direct_indices: List[int] = []
        direct_prompts: List[str] = []
        for index, (incident_text, demonstrations) in enumerate(unique_items):
            if demonstrations:
                fewshot_indices.append(index)
                fewshot_prompts.append(build_prediction_prompt(incident_text, demonstrations))
            else:
                direct_indices.append(index)
                direct_prompts.append(build_direct_prediction_prompt(incident_text))
        unique_results: List[Optional[CategoryPrediction]] = [None] * len(unique_items)
        if fewshot_prompts:
            completions = self.model.complete_many(
                [[ChatMessage(role="user", content=p.text)] for p in fewshot_prompts],
                temperature=self.temperature,
            )
            for index, prompt, completion in zip(fewshot_indices, fewshot_prompts, completions):
                parsed: ParsedPrediction = parse_prediction(completion.text, prompt)
                unique_results[index] = CategoryPrediction(
                    category=parsed.category,
                    is_unseen=parsed.is_unseen,
                    new_category=parsed.new_category,
                    explanation=parsed.explanation,
                    chosen_letter=parsed.letter,
                    demonstrations=list(unique_items[index][1]),
                )
        if direct_prompts:
            completions = self.model.complete_many(
                [[ChatMessage(role="user", content=p)] for p in direct_prompts],
                temperature=self.temperature,
            )
            for index, completion in zip(direct_indices, completions):
                category, explanation = parse_direct_prediction(completion.text)
                unique_results[index] = CategoryPrediction(
                    category=category,
                    is_unseen=category is None,
                    new_category=category,
                    explanation=explanation,
                    chosen_letter="-",
                    demonstrations=[],
                )
        if not dedup:
            return unique_results  # type: ignore[return-value]
        return [
            fan_out_prediction(unique_results[position], demonstrations)  # type: ignore[arg-type]
            for position, (_, demonstrations) in zip(item_of, items)
        ]
