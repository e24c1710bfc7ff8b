"""LLM layer: tokenizer, chat models, summarization, prompting and CoT prediction."""

from .cot import CategoryPrediction, ChainOfThoughtPredictor
from .finetune import FineTunedModel, FineTuneExample, FineTuneJob
from .model import (
    ChatMessage,
    ChatModel,
    CompletionResult,
    SimulatedLLM,
    UsageTracker,
    complete_many,
)
from .prompts import (
    Demonstration,
    ParsedPrediction,
    PredictionPrompt,
    PREDICTION_CONTEXT,
    SUMMARIZE_INSTRUCTION,
    build_direct_prediction_prompt,
    build_prediction_prompt,
    build_summarization_prompt,
    parse_direct_prediction,
    parse_prediction,
)
from .summarize import DiagnosticSummarizer, SummaryResult, summarize_incident
from .tokenizer import DEFAULT_TOKENIZER, Tokenizer, count_tokens, truncate_tokens

__all__ = [
    "CategoryPrediction",
    "ChainOfThoughtPredictor",
    "FineTunedModel",
    "FineTuneExample",
    "FineTuneJob",
    "ChatMessage",
    "ChatModel",
    "CompletionResult",
    "SimulatedLLM",
    "UsageTracker",
    "complete_many",
    "Demonstration",
    "ParsedPrediction",
    "PredictionPrompt",
    "PREDICTION_CONTEXT",
    "SUMMARIZE_INSTRUCTION",
    "build_direct_prediction_prompt",
    "build_prediction_prompt",
    "build_summarization_prompt",
    "parse_direct_prediction",
    "parse_prediction",
    "DiagnosticSummarizer",
    "SummaryResult",
    "summarize_incident",
    "DEFAULT_TOKENIZER",
    "Tokenizer",
    "count_tokens",
    "truncate_tokens",
]
