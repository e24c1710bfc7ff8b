"""Chat-completion interface and the offline simulated model.

The paper drives GPT-3.5-turbo / GPT-4 through a chat-completion API for two
tasks: summarizing diagnostic information (Figure 7) and answering the
multiple-choice chain-of-thought prompt (Figure 9).  No network access is
available here, so :class:`SimulatedLLM` implements the same interface with
deterministic text processing:

* summarization requests are answered by extractive summarization biased
  toward error/exception/metric lines, budgeted to the requested word count;
* multiple-choice prompts are answered by scoring each option's text against
  the input with lexical similarity and responding with the best option and
  a templated explanation;
* open-ended category requests are answered by synthesising a short label
  from the most salient evidence tokens (so unseen incidents get a fresh
  name such as ``IoBottleneck``).

The substitution is documented in DESIGN.md.  Because the simulated model
only sees the prompt text, prediction accuracy still depends entirely on what
the pipeline retrieves and how it constructs the prompt — preserving the
shape of the paper's ablations.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..embedding.text import jaccard_similarity, sentences, tokenize
from .tokenizer import DEFAULT_TOKENIZER


@dataclass(frozen=True)
class ChatMessage:
    """One message of a chat conversation."""

    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass
class CompletionResult:
    """A chat completion with usage accounting."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str


class ChatModel(Protocol):
    """Interface every chat model (simulated or real) implements.

    The pipeline calls only ``complete_many``: every summary and prediction
    is one item of a batch call, so a model implements ``complete_many``
    itself (a minimal one loops ``complete`` in order).
    """

    name: str

    def complete(self, messages: Sequence[ChatMessage], temperature: float = 0.0) -> CompletionResult:
        """Produce a completion for a conversation."""
        ...

    def complete_many(
        self, conversations: Sequence[Sequence[ChatMessage]], temperature: float = 0.0
    ) -> List["CompletionResult"]:
        """Produce completions for a batch of conversations."""
        ...


@dataclass
class UsageTracker:
    """Accumulates token usage across calls (for cost/efficiency reporting)."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def record(self, result: CompletionResult) -> None:
        """Record one completion."""
        self.calls += 1
        self.prompt_tokens += result.prompt_tokens
        self.completion_tokens += result.completion_tokens


_SALIENT_MARKERS = (
    "exception", "error", "failed", "failure", "crash", "timeout", "exceeded",
    "unreachable", "invalid", "unable", "poison", "full", "exhaust", "leak",
    "denied", "corrupt", "stuck", "drop",
)

_OPTION_RE = re.compile(r"^([A-Z]):\s*(.+)$", re.MULTILINE | re.DOTALL)


class SimulatedLLM:
    """Deterministic offline stand-in for the GPT chat models."""

    def __init__(self, name: str = "simulated-gpt-4", seed: int = 0, noise: float = 0.0) -> None:
        """Create a simulated model.

        Args:
            name: Model name reported in results (e.g. ``simulated-gpt-4``).
            seed: Seed for the (optional) response noise.
            noise: Probability of picking the second-best option in
                multiple-choice answers, modelling the run-to-run instability
                the paper discusses in its trustworthiness section.  0.0 is
                fully deterministic.
        """
        self.name = name
        self.noise = noise
        self._rng = random.Random(seed)
        self.usage = UsageTracker()

    # ------------------------------------------------------------------- api
    def complete(
        self, messages: Sequence[ChatMessage], temperature: float = 0.0
    ) -> CompletionResult:
        """Answer a conversation; dispatches on the prompt's apparent intent."""
        prompt = "\n\n".join(m.content for m in messages)
        lowered = prompt.lower()
        if "please summarize the above input" in lowered or "summarize the following" in lowered:
            text = self._summarize(prompt)
        elif "options:" in lowered and _OPTION_RE.search(prompt):
            text = self._answer_multiple_choice(prompt)
        elif "root cause category" in lowered or "category" in lowered:
            text = self._open_ended_category(prompt)
        else:
            text = self._summarize(prompt)
        result = CompletionResult(
            text=text,
            prompt_tokens=DEFAULT_TOKENIZER.count(prompt),
            completion_tokens=DEFAULT_TOKENIZER.count(text),
            model=self.name,
        )
        self.usage.record(result)
        return result

    def complete_many(
        self, conversations: Sequence[Sequence[ChatMessage]], temperature: float = 0.0
    ) -> List[CompletionResult]:
        """Answer a batch of conversations in order.

        When the model is deterministic (``noise == 0``), identical prompts
        inside one batch are completed once and the result is shared — the
        in-batch deduplication a real batched serving endpoint performs.
        Usage is recorded per *actual* completion, so a recurring-incident
        batch shows fewer LLM calls than conversations.  With ``noise > 0``
        every conversation is completed independently, preserving the exact
        RNG draw order of sequential calls.
        """
        if self.noise > 0:
            return [self.complete(messages, temperature=temperature) for messages in conversations]
        memo: Dict[str, CompletionResult] = {}
        results: List[CompletionResult] = []
        for messages in conversations:
            key = "\n\n".join(m.content for m in messages)
            cached = memo.get(key)
            if cached is None:
                cached = self.complete(messages, temperature=temperature)
                memo[key] = cached
            results.append(cached)
        return results

    # ---------------------------------------------------------- summarization
    def _summarize(self, prompt: str, target_words: Tuple[int, int] = (120, 140)) -> str:
        body = _strip_instructions(prompt)
        lines = sentences(body)
        if not lines:
            return "No diagnostic information was provided."
        scored = sorted(
            ((self._salience(line), index, line) for index, line in enumerate(lines)),
            key=lambda item: (-item[0], item[1]),
        )
        lower, upper = target_words
        selected: List[Tuple[int, str]] = []
        total_words = 0
        for _, index, line in scored:
            words = len(line.split())
            if total_words + words > upper and total_words >= lower // 2:
                continue
            selected.append((index, line))
            total_words += words
            if total_words >= lower:
                break
        selected.sort(key=lambda item: item[0])
        summary = " ".join(line.rstrip(".") + "." for _, line in selected)
        words = summary.split()
        if len(words) > upper:
            summary = " ".join(words[:upper])
        return summary

    @staticmethod
    def _salience(line: str) -> float:
        lowered = line.lower()
        score = 0.0
        for marker in _SALIENT_MARKERS:
            if marker in lowered:
                score += 2.0
        if any(char.isdigit() for char in line):
            score += 0.5
        if "==" in line:
            score -= 1.0  # section headers carry little content
        score += min(len(line), 160) / 160.0
        return score

    # -------------------------------------------------------- multiple choice
    def _answer_multiple_choice(self, prompt: str) -> str:
        input_text = _extract_block(prompt, "Input:", "Options:")
        options = _parse_options(prompt)
        if not options:
            return "A: Unable to parse options."
        input_tokens = tokenize(input_text)
        option_tokens = {letter: tokenize(text) for letter, text in options.items()}
        document_frequency: Dict[str, int] = {}
        for tokens in option_tokens.values():
            for token in set(tokens):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        scores: Dict[str, float] = {}
        for letter, text in options.items():
            scores[letter] = self._option_score(
                input_tokens, option_tokens[letter], text, document_frequency, len(options)
            )
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        best_letter, best_score = ranked[0]
        # Optional instability: occasionally swap in the runner-up.
        if self.noise > 0 and len(ranked) > 1 and self._rng.random() < self.noise:
            best_letter, best_score = ranked[1]
        unseen_letter = _find_unseen_option(options)
        if unseen_letter is not None and best_letter != unseen_letter:
            # If no option stands out from the pack, the incident looks unseen:
            # all candidates share only boilerplate with the input.
            others = [score for letter, score in ranked if letter not in (best_letter, unseen_letter)]
            median_other = sorted(others)[len(others) // 2] if others else 0.0
            margin = (best_score - median_other) / (median_other + 1e-9)
            if best_score <= 0.0 or margin < 0.18:
                best_letter = unseen_letter
        if unseen_letter is not None and best_letter == unseen_letter:
            label = self._synthesize_label(input_text)
            explanation = self._explain_new_label(input_text, label)
            return f"{best_letter}: Unseen incident. New category: {label}. {explanation}"
        chosen_text = options[best_letter]
        explanation = self._explain_choice(input_text, chosen_text)
        return f"{best_letter}: {chosen_text.splitlines()[0][:160]}\nExplanation: {explanation}"

    def _option_score(
        self,
        input_tokens: List[str],
        option_tokens: List[str],
        option_text: str,
        document_frequency: Dict[str, int],
        num_options: int,
    ) -> float:
        """Score an option by distinctive shared evidence.

        Shared tokens are weighted by how rare they are across the presented
        options (prompt-local IDF): a token appearing in every option —
        machine names, dates, template boilerplate — contributes almost
        nothing, while an exception name unique to one option dominates.
        This mirrors how a careful reader compares candidate incidents.
        """
        if not option_tokens or "unseen incident" in option_text.lower():
            return 0.0
        option_set = set(option_tokens)
        # Sorted iteration keeps the float accumulation order independent of
        # the process hash seed, so scores are bit-identical across runs.
        shared = sorted(set(input_tokens) & option_set)
        if not shared:
            return 0.0
        score = 0.0
        for token in shared:
            if len(token) < 4:
                continue
            frequency = document_frequency.get(token, 1)
            rarity = math.log(1.0 + num_options / frequency)
            salient = 1.5 if (len(token) > 9 or "exception" in token) else 1.0
            score += rarity * salient
        # Normalise mildly by option length so verbose options are not favoured.
        score /= math.sqrt(len(option_set))
        # Small tie-breaking contribution from overall lexical overlap.
        score += 0.05 * jaccard_similarity(input_tokens, option_tokens)
        return score

    def _explain_choice(self, input_text: str, option_text: str) -> str:
        # Tie-break equal-length tokens lexicographically: without it the
        # order falls back to set iteration order, which is hash-salted and
        # varies across processes — breaking cross-process replay goldens.
        shared = sorted(
            set(tokenize(input_text)) & set(tokenize(option_text)),
            key=lambda token: (-len(token), token),
        )
        evidence = ", ".join(shared[:5]) if shared else "the overall failure pattern"
        return (
            "The selected historical incident shares the same failure signature as the "
            f"current diagnostic information (matching evidence: {evidence}), which "
            "suggests both were caused by the same underlying issue."
        )

    # ---------------------------------------------------------- new categories
    def _open_ended_category(self, prompt: str) -> str:
        body = _strip_instructions(prompt)
        label = self._synthesize_label(body)
        explanation = self._explain_new_label(body, label)
        return f"Category: {label}\nExplanation: {explanation}"

    def _synthesize_label(self, text: str) -> str:
        """Build a CamelCase label from the most salient evidence tokens."""
        lowered = text.lower()
        keyword_labels = (
            (("ioexception", "disk", "not enough space"), "IoBottleneck"),
            (("winsock", "socket", "dns"), "NetworkPortExhaustion"),
            (("certificate", "token"), "AuthCertificateFailure"),
            (("queue", "stuck", "backlog"), "QueueBacklog"),
            (("deadlock", "thread"), "ThreadContention"),
            (("memory", "leak", "outofmemory"), "MemoryPressure"),
            (("timeout", "cancel"), "DependencyTimeout"),
            (("poison",), "PoisonMessage"),
            (("crash", "exploit", "malicious"), "ProcessCrash"),
            (("config", "tenantsettings", "invalid value"), "ConfigurationError"),
        )
        for keywords, label in keyword_labels:
            if any(keyword in lowered for keyword in keywords):
                return label
        tokens = [t for t in tokenize(text) if len(t) > 5][:2]
        if not tokens:
            return "UnknownRootCause"
        return "".join(token.capitalize() for token in tokens)

    def _explain_new_label(self, text: str, label: str) -> str:
        evidence = [
            line.strip()
            for line in text.splitlines()
            if any(marker in line.lower() for marker in _SALIENT_MARKERS)
        ][:2]
        cited = " ".join(evidence) if evidence else "the collected diagnostic information"
        return (
            f"The prediction of \"{label}\" was made based on {cited[:300]} — these "
            "signals do not match any provided historical incident, pointing to a new "
            "root cause category."
        )


def _strip_instructions(prompt: str) -> str:
    """Remove instruction boilerplate, keeping the payload being analysed."""
    markers = ("please summarize the above input", "context:", "options:")
    lowered = prompt.lower()
    cut = len(prompt)
    for marker in markers:
        index = lowered.find(marker)
        if index != -1:
            cut = min(cut, index)
    return prompt[:cut].strip()


def _extract_block(prompt: str, start_marker: str, end_marker: str) -> str:
    """Extract the text between two markers (case-insensitive)."""
    lowered = prompt.lower()
    start = lowered.find(start_marker.lower())
    if start == -1:
        return prompt
    start += len(start_marker)
    end = lowered.find(end_marker.lower(), start)
    if end == -1:
        end = len(prompt)
    return prompt[start:end].strip()


def _parse_options(prompt: str) -> Dict[str, str]:
    """Parse lettered options from a Figure 9-style prompt."""
    lowered = prompt.lower()
    index = lowered.find("options:")
    if index == -1:
        return {}
    block = prompt[index + len("options:"):]
    options: Dict[str, str] = {}
    current_letter: Optional[str] = None
    current_lines: List[str] = []
    for line in block.splitlines():
        match = re.match(r"^\s*([A-Z]):\s*(.*)$", line)
        if match:
            if current_letter is not None:
                options[current_letter] = "\n".join(current_lines).strip()
            current_letter = match.group(1)
            current_lines = [match.group(2)]
        elif current_letter is not None:
            current_lines.append(line)
    if current_letter is not None:
        options[current_letter] = "\n".join(current_lines).strip()
    return options


def _find_unseen_option(options: Dict[str, str]) -> Optional[str]:
    for letter, text in options.items():
        if "unseen incident" in text.lower():
            return letter
    return None
