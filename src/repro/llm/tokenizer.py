"""A small deterministic tokenizer (tiktoken substitute).

The paper uses the tiktoken tokenizer only to count tokens when budgeting
prompts and summaries.  This module provides an offline equivalent: a greedy
word/punctuation splitter whose long words are further broken into
fixed-size subword pieces, approximating BPE token counts closely enough for
budget decisions.
"""

from __future__ import annotations

import re
from typing import List, Optional

_WORD_RE = re.compile(r"\s+|[A-Za-z]+|\d+|[^\sA-Za-z\d]")
#: Average characters per BPE piece inside long alphabetic words.
_SUBWORD_LENGTH = 4
#: Words at or below this length count as a single token.
_SHORT_WORD = 6


class Tokenizer:
    """Greedy word/subword tokenizer with stable token counting."""

    def encode(self, text: str) -> List[str]:
        """Split text into token pieces.

        Whitespace is dropped; punctuation is one token per character; long
        alphabetic words are split into ``_SUBWORD_LENGTH``-character pieces.
        """
        pieces: List[str] = []
        for match in _WORD_RE.finditer(text):
            token = match.group(0)
            if token.isspace():
                continue
            if token.isalpha() and len(token) > _SHORT_WORD:
                for start in range(0, len(token), _SUBWORD_LENGTH):
                    pieces.append(token[start : start + _SUBWORD_LENGTH])
            elif token.isdigit() and len(token) > 3:
                for start in range(0, len(token), 3):
                    pieces.append(token[start : start + 3])
            else:
                pieces.append(token)
        return pieces

    def count(self, text: str) -> int:
        """Number of tokens in a text."""
        return len(self.encode(text))

    def truncate(self, text: str, max_tokens: int) -> str:
        """Truncate text to approximately ``max_tokens`` tokens on a word boundary.

        Keeps whole whitespace-separated words up to the first one that does
        not fit and joins them with single spaces; a text that fits is
        returned unchanged.  Tokens never span whitespace, so one pass over
        the regex matches prices every word.
        """
        if max_tokens <= 0:
            return ""
        total = 0
        word_start: Optional[int] = None  # None between words
        for match in _WORD_RE.finditer(text):
            token = match.group(0)
            if token.isspace():
                word_start = None
                continue
            if word_start is None:
                word_start = match.start()
            # As many pieces as :meth:`encode` makes of this match.
            size = len(token)
            if size > _SHORT_WORD and token.isalpha():
                total += -(-size // _SUBWORD_LENGTH)
            elif size > 3 and token.isdigit():
                total += -(-size // 3)
            else:
                total += 1
            if total > max_tokens:
                return " ".join(text[:word_start].split())
        return text


#: Shared default tokenizer instance.
DEFAULT_TOKENIZER = Tokenizer()


def count_tokens(text: str) -> int:
    """Count tokens with the default tokenizer."""
    return DEFAULT_TOKENIZER.count(text)


def truncate_tokens(text: str, max_tokens: int) -> str:
    """Truncate text with the default tokenizer."""
    return DEFAULT_TOKENIZER.truncate(text, max_tokens)
