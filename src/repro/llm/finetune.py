"""Simulated LLM fine-tuning (the Fine-tune GPT baseline of Table 2).

The paper's fine-tuning baseline (Ahmed et al.) adapts a GPT-3.5 model to map
raw incident text directly to a root-cause label, with no retrieval or
chain-of-thought scaffolding at inference time.  Offline we simulate the
*behavioural* properties of that baseline: it learns only from the training
split, memorises per-class token statistics, and predicts the class whose
statistics best match the query text — so it does well on frequent classes
seen many times in training and poorly on the long tail, which is the failure
mode the paper reports.

The "fine-tuning" is a multinomial naive-Bayes fit over class token counts,
exposed through the same chat interface so it can slot into the evaluation
harness like any other model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..embedding.text import tokenize
from .model import ChatMessage, CompletionResult
from .tokenizer import DEFAULT_TOKENIZER


@dataclass
class FineTuneExample:
    """One supervised fine-tuning example (prompt text and target label)."""

    text: str
    label: str


@dataclass
class FineTuneJob:
    """Summary of a completed simulated fine-tuning job."""

    examples: int
    labels: int
    vocabulary_size: int
    epochs_simulated: int = 4


class FineTunedModel:
    """A simulated fine-tuned chat model predicting labels from raw text."""

    def __init__(self, name: str = "simulated-finetuned-gpt-3.5", smoothing: float = 0.5) -> None:
        self.name = name
        self.smoothing = smoothing
        self._class_token_counts: Dict[str, Dict[str, int]] = {}
        self._class_totals: Dict[str, int] = {}
        self._class_priors: Dict[str, float] = {}
        self._vocabulary: set = set()
        self._trained = False

    # ------------------------------------------------------------------ train
    def finetune(self, examples: Sequence[FineTuneExample]) -> FineTuneJob:
        """Fit the per-class token statistics from supervised examples."""
        if not examples:
            raise ValueError("cannot fine-tune on an empty example set")
        self._class_token_counts = {}
        self._class_totals = {}
        label_counts: Dict[str, int] = {}
        for example in examples:
            label_counts[example.label] = label_counts.get(example.label, 0) + 1
            counts = self._class_token_counts.setdefault(example.label, {})
            for token in tokenize(example.text):
                counts[token] = counts.get(token, 0) + 1
                self._vocabulary.add(token)
            self._class_totals[example.label] = sum(counts.values())
        total = sum(label_counts.values())
        self._class_priors = {
            label: count / total for label, count in label_counts.items()
        }
        self._trained = True
        return FineTuneJob(
            examples=len(examples),
            labels=len(label_counts),
            vocabulary_size=len(self._vocabulary),
        )

    # ---------------------------------------------------------------- predict
    def predict_label(self, text: str) -> str:
        """Most likely label for a text under the fitted statistics."""
        if not self._trained:
            raise RuntimeError("FineTunedModel.finetune must be called before predicting")
        tokens = tokenize(text)
        vocab_size = max(1, len(self._vocabulary))
        best_label = ""
        best_score = -math.inf
        for label, prior in sorted(self._class_priors.items()):
            counts = self._class_token_counts[label]
            total = self._class_totals[label]
            score = math.log(prior)
            for token in tokens:
                probability = (counts.get(token, 0) + self.smoothing) / (
                    total + self.smoothing * vocab_size
                )
                score += math.log(probability)
            if score > best_score:
                best_score = score
                best_label = label
        return best_label

    def complete(
        self, messages: Sequence[ChatMessage], temperature: float = 0.0
    ) -> CompletionResult:
        """Chat interface: answer any prompt with ``Category: <label>``."""
        prompt = "\n\n".join(m.content for m in messages)
        label = self.predict_label(prompt)
        text = f"Category: {label}"
        return CompletionResult(
            text=text,
            prompt_tokens=DEFAULT_TOKENIZER.count(prompt),
            completion_tokens=DEFAULT_TOKENIZER.count(text),
            model=self.name,
        )

    def complete_many(
        self, conversations: Sequence[Sequence[ChatMessage]], temperature: float = 0.0
    ) -> List[CompletionResult]:
        """Answer a batch of conversations in order."""
        return [self.complete(messages, temperature=temperature) for messages in conversations]

    @property
    def labels(self) -> List[str]:
        """Labels known to the fine-tuned model."""
        return sorted(self._class_priors)
