"""Diagnostic information summarization (Section 4.2.3).

Raw diagnostic reports often exceed 2000 tokens; the paper adds an LLM
summarization layer that compresses them to 120-140 words before prompting.
:class:`DiagnosticSummarizer` drives any :class:`ChatModel` through the
Figure 7 prompt and enforces the word budget on the result.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .model import ChatMessage, ChatModel, complete_many
from .prompts import build_summarization_prompt


@dataclass
class SummaryResult:
    """A produced summary and its length in words.

    Token usage is accounted where completions happen
    (:class:`CompletionResult`, :class:`UsageTracker`), not here.
    """

    text: str
    word_count: int


class DiagnosticSummarizer:
    """Summarizes diagnostic reports with an LLM, enforcing the word budget."""

    def __init__(
        self,
        model: ChatModel,
        min_words: int = 120,
        max_words: int = 140,
    ) -> None:
        if min_words <= 0 or max_words < min_words:
            raise ValueError("require 0 < min_words <= max_words")
        self.model = model
        self.min_words = min_words
        self.max_words = max_words

    def summarize(self, diagnostic_text: str) -> SummaryResult:
        """Summarize one incident's diagnostic information.

        Very short inputs (already below the budget) are passed through
        unchanged — there is nothing to compress and an LLM call would only
        add latency and noise.
        """
        words = diagnostic_text.split()
        if len(words) <= self.max_words:
            return SummaryResult(text=diagnostic_text.strip(), word_count=len(words))
        prompt = build_summarization_prompt(diagnostic_text)
        completion = self.model.complete([ChatMessage(role="user", content=prompt)])
        summary = self._enforce_budget(completion.text)
        return SummaryResult(text=summary, word_count=len(summary.split()))

    def summarize_many(self, diagnostic_texts: Sequence[str]) -> List[SummaryResult]:
        """Summarize a batch of diagnostic reports with one batched LLM call.

        Texts already inside the word budget pass through unchanged exactly
        as in :meth:`summarize`; the remaining texts are completed through
        the model's batch interface (which deduplicates identical prompts
        for deterministic models), so a batch of recurring incidents costs
        one LLM completion per distinct report.
        """
        results: List[Optional[SummaryResult]] = []
        pending_indices: List[int] = []
        pending_prompts: List[List[ChatMessage]] = []
        for text in diagnostic_texts:
            words = text.split()
            if len(words) <= self.max_words:
                results.append(SummaryResult(text=text.strip(), word_count=len(words)))
                continue
            results.append(None)
            pending_indices.append(len(results) - 1)
            pending_prompts.append(
                [ChatMessage(role="user", content=build_summarization_prompt(text))]
            )
        if pending_prompts:
            completions = complete_many(self.model, pending_prompts)
            for index, completion in zip(pending_indices, completions):
                summary = self._enforce_budget(completion.text)
                results[index] = SummaryResult(
                    text=summary, word_count=len(summary.split())
                )
        return results  # type: ignore[return-value]

    def _enforce_budget(self, text: str) -> str:
        words = text.split()
        if len(words) > self.max_words:
            words = words[: self.max_words]
        return sys.intern(" ".join(words).strip())


def summarize_incident(
    model: ChatModel, diagnostic_text: str, summarizer: Optional[DiagnosticSummarizer] = None
) -> str:
    """Convenience wrapper returning just the summary text."""
    summarizer = summarizer or DiagnosticSummarizer(model)
    return summarizer.summarize(diagnostic_text).text
