"""Prompt construction and completion parsing (Figures 7 and 9).

The prediction stage builds two prompts:

* the **summarization prompt** (Figure 7) asking the model to compress the
  raw diagnostic information to 120-140 words;
* the **prediction prompt** (Figure 9): a multiple-choice chain-of-thought
  prompt whose options are the summarized diagnostic information of the K
  retrieved neighbour incidents (with their categories) plus the literal
  "Unseen incident" escape hatch.

This module renders those prompts and parses the model's answers back into
structured predictions.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .tokenizer import truncate_tokens

#: Verbatim summarization instruction from Figure 7.
SUMMARIZE_INSTRUCTION = (
    "Please summarize the above input. Please note that the above input is "
    "incident diagnostic information. The summary results should be about 120 "
    "words, no more than 140 words, and should cover important information as "
    "much as possible. Just return the summary without any additional output."
)

#: Context sentence of the Figure 9 prediction prompt.
PREDICTION_CONTEXT = (
    "Context: The following description shows the error log information of an "
    "incident. Please select the incident information that is most likely to "
    "have the same root cause and give your explanation (just give one answer). "
    "If not, please select the first item \"Unseen incident\"."
)

#: Hard cap on the tokens devoted to each demonstration option.
MAX_OPTION_TOKENS = 260
#: Hard cap on the tokens devoted to the query incident's description.
MAX_INPUT_TOKENS = 700

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(slots=True)
class Demonstration:
    """One retrieved neighbour offered as a prompt option (slotted: a report
    keeps its K)."""

    incident_id: str
    summary: str
    category: str
    similarity: float = 0.0


@dataclass
class PredictionPrompt:
    """A rendered prediction prompt plus the option → category mapping."""

    text: str
    option_categories: Dict[str, Optional[str]]
    demonstrations: List[Demonstration]

    def category_for(self, letter: str) -> Optional[str]:
        """Ground category of a chosen option letter (None = unseen)."""
        return self.option_categories.get(letter)


@dataclass
class ParsedPrediction:
    """Structured result parsed from a prediction completion."""

    letter: str
    category: Optional[str]
    is_unseen: bool
    new_category: Optional[str]
    explanation: str


def build_summarization_prompt(diagnostic_text: str) -> str:
    """Render the Figure 7 summarization prompt for one incident."""
    body = truncate_tokens(diagnostic_text, 3000)
    return f"{body}\n\n{SUMMARIZE_INSTRUCTION}"


@functools.lru_cache(maxsize=4096)
def _option_text(summary: str) -> str:
    """A demonstration summary cut to its option budget, priced once per text.

    Options are index entries' summaries, which recur across prompts and
    which the index holds anyway, so the memo pins only the cut copies (a
    summary that fits is its own value; a cut one is ≈0.8 KB, and no
    benchmark window offers more than 161 distinct summaries).  Input and
    summarization texts are per-alert and stay unmemoised: nothing would
    bound their lifetime.
    """
    return truncate_tokens(summary, MAX_OPTION_TOKENS)


def build_prediction_prompt(
    incident_text: str, demonstrations: Sequence[Demonstration]
) -> PredictionPrompt:
    """Render the Figure 9 multiple-choice prediction prompt.

    Option ``A`` is always the "Unseen incident" escape; options ``B``...
    are the demonstrations in descending similarity order, each ending with
    its ``category:`` tag exactly as in the paper's example.
    """
    if len(demonstrations) + 1 > len(_LETTERS):
        raise ValueError("too many demonstrations for lettered options")
    lines: List[str] = [PREDICTION_CONTEXT, ""]
    lines.append("Input: " + truncate_tokens(incident_text, MAX_INPUT_TOKENS))
    lines.append("")
    lines.append("Options:")
    option_categories: Dict[str, Optional[str]] = {"A": None}
    lines.append("A: Unseen incident.")
    for index, demonstration in enumerate(demonstrations):
        letter = _LETTERS[index + 1]
        summary = _option_text(demonstration.summary)
        lines.append(f"{letter}: {summary} category: {demonstration.category}.")
        option_categories[letter] = demonstration.category
    return PredictionPrompt(
        text="\n".join(lines),
        option_categories=option_categories,
        demonstrations=list(demonstrations),
    )


def build_direct_prediction_prompt(incident_text: str) -> str:
    """The GPT-4 Prompt variant: predict the category with no demonstrations."""
    body = truncate_tokens(incident_text, MAX_INPUT_TOKENS)
    return (
        "Context: The following description shows the diagnostic information of a "
        "cloud incident. Predict the incident's root cause category label and give "
        "your explanation.\n\n"
        f"Input: {body}\n\n"
        "Answer with: Category: <label>"
    )


_ANSWER_RE = re.compile(r"^\s*([A-Z])\s*[:.]", re.MULTILINE)
_NEW_CATEGORY_RE = re.compile(r"New category:\s*([A-Za-z0-9_\-]+)")
_CATEGORY_RE = re.compile(r"Category:\s*([A-Za-z0-9_\-]+)")
_EXPLANATION_RE = re.compile(r"Explanation:\s*(.+)", re.DOTALL)


def parse_prediction(completion: str, prompt: PredictionPrompt) -> ParsedPrediction:
    """Parse a model completion for a multiple-choice prediction prompt.

    Unparseable completions degrade to the "Unseen incident" option rather
    than raising, because the production system must always produce some
    label for OCEs to review.
    """
    match = _ANSWER_RE.search(completion)
    letter = match.group(1) if match else "A"
    if letter not in prompt.option_categories:
        letter = "A"
    category = prompt.category_for(letter)
    is_unseen = category is None
    new_category: Optional[str] = None
    if is_unseen:
        new_match = _NEW_CATEGORY_RE.search(completion) or _CATEGORY_RE.search(completion)
        if new_match:
            new_category = new_match.group(1)
    explanation_match = _EXPLANATION_RE.search(completion)
    explanation = (
        explanation_match.group(1).strip() if explanation_match else completion.strip()
    )
    return ParsedPrediction(
        letter=letter,
        category=category,
        is_unseen=is_unseen,
        new_category=new_category,
        explanation=explanation,
    )


def parse_direct_prediction(completion: str) -> Tuple[Optional[str], str]:
    """Parse the (category, explanation) from a direct-prediction completion."""
    category_match = _CATEGORY_RE.search(completion)
    category = category_match.group(1) if category_match else None
    explanation_match = _EXPLANATION_RE.search(completion)
    explanation = (
        explanation_match.group(1).strip() if explanation_match else completion.strip()
    )
    return category, explanation
