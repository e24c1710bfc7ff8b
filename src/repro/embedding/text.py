"""Text normalisation and n-gram utilities shared by the embedding models.

Incident diagnostic text mixes natural language with identifiers, numbers,
stack frames and machine names.  Normalisation keeps the discriminative
tokens (exception names, component names) while collapsing run-specific
noise (numbers, GUIDs), which is what makes the bag-of-subwords embeddings
separable across categories.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence

#: ``FastTextEmbedder`` memoises what each match of this pattern tokenises to:
#: :func:`tokenize` must stay a function of the matches taken one at a time.
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.]+|\d+")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NUMBER_RE = re.compile(r"^\d+(\.\d+)?$")


def tokenize(text: str, split_camel_case: bool = True, keep_numbers: bool = False) -> List[str]:
    """Split text into lowercase word tokens.

    Args:
        text: Raw text.
        split_camel_case: Also split ``CamelCase`` identifiers into their
            parts (``MailboxOfflineException`` -> ``mailbox offline exception``)
            while keeping the original compound token.
        keep_numbers: Keep pure-number tokens (normally dropped as noise).

    Returns:
        A list of lowercase tokens.
    """
    tokens: List[str] = []
    for raw in _TOKEN_RE.findall(text):
        if _NUMBER_RE.match(raw):
            if keep_numbers:
                tokens.append(raw)
            continue
        lowered = raw.lower()
        tokens.append(lowered)
        if split_camel_case and raw != lowered:
            parts = [p.lower() for p in _CAMEL_RE.split(raw) if len(p) > 1]
            if len(parts) > 1:
                tokens.extend(parts)
    return tokens


def character_ngrams(token: str, min_n: int = 3, max_n: int = 5) -> List[str]:
    """FastText-style character n-grams of a token, with boundary markers.

    ``"port"`` with ``min_n=3, max_n=5`` yields n-grams of ``"<port>"``:
    ``<po, por, ort, rt>, <por, port, ort>, ...``.
    """
    if min_n < 1 or max_n < min_n:
        raise ValueError("require 1 <= min_n <= max_n")
    wrapped = f"<{token}>"
    grams: List[str] = []
    for n in range(min_n, max_n + 1):
        if n > len(wrapped):
            break
        for start in range(len(wrapped) - n + 1):
            grams.append(wrapped[start : start + n])
    return grams


def ngram_hash(gram: str, buckets: int) -> int:
    """Deterministic FNV-1a hash of an n-gram into ``buckets`` buckets."""
    value = 0x811C9DC5
    for char in gram.encode("utf-8"):
        value ^= char
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value % buckets


def sentences(text: str) -> List[str]:
    """Split text into rough sentences/lines for extractive summarization."""
    parts: List[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        for piece in re.split(r"(?<=[.!?;])\s+", line):
            piece = piece.strip()
            if piece:
                parts.append(piece)
    return parts


def unique_preserving_order(items: Iterable[str]) -> List[str]:
    """De-duplicate while preserving first-seen order."""
    seen = set()
    result: List[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            result.append(item)
    return result


def jaccard_similarity(a: Sequence[str], b: Sequence[str]) -> float:
    """Jaccard similarity of two token sequences (0.0 for two empty sets)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)
