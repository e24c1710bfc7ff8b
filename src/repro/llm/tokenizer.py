"""A small deterministic tokenizer (tiktoken substitute).

The paper uses the tiktoken tokenizer only to count tokens when budgeting
prompts and summaries.  This module provides an offline equivalent: runs of
ASCII letters, runs of digits and single other non-space characters are
tokens, a letter run longer than six is cut into four-letter pieces and a
digit run longer than three into three-digit pieces, approximating BPE token
counts closely enough for budget decisions.

:meth:`Tokenizer.encode` materialises the pieces and is the reference.
:meth:`Tokenizer.count` prices an ASCII text by character class: three
``str.translate`` passes give its letter runs, its digit runs and its other
characters, with no regex match and no piece cut.  A text with any non-ASCII
character keeps the regex passes, whose whitespace and digit classes are
Unicode's.
"""

from __future__ import annotations

import re
from typing import List, Optional

_WORD_RE = re.compile(r"\s+|[A-Za-z]+|\d+|[^\sA-Za-z\d]")
#: Average characters per BPE piece inside long alphabetic words.
_SUBWORD_LENGTH = 4
#: Words at or below this length count as a single token.
_SHORT_WORD = 6
#: Digit runs at or below this length count as a single token; longer ones
#: split into pieces of this many digits.
_DIGIT_LENGTH = 3

# What :meth:`Tokenizer.count` prices a non-ASCII text with: every non-space
# match of ``_WORD_RE`` is one token, and the runs :meth:`Tokenizer.encode`
# splits add their extra pieces (a run of n makes
# ceil(n / piece) = 1 + (n - 1) // piece of them).
_TOKEN_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")
_LONG_WORD_RE = re.compile(r"[A-Za-z]{%d,}" % (_SHORT_WORD + 1))
_LONG_DIGITS_RE = re.compile(r"\d{%d,}" % (_DIGIT_LENGTH + 1))

# The same classes over the 128 ASCII code points, as ``str.translate``
# tables: letters to "a" and the rest to spaces (``split()`` gives the letter
# runs), digits to "0" and the rest to spaces (the digit runs), and letters,
# digits and whitespace deleted (what is left is one token per character).
# Whitespace is what ``_WORD_RE``'s ``\s`` matches, \x1c-\x1f included.
_ASCII = "".join(map(chr, range(128)))
_LETTERS = "".join(re.findall(r"[A-Za-z]", _ASCII))
_DIGITS = "".join(re.findall(r"\d", _ASCII))
_SPACES = "".join(re.findall(r"\s", _ASCII))
_LETTER_RUNS = str.maketrans(_ASCII, "".join("a" if c in _LETTERS else " " for c in _ASCII))
_DIGIT_RUNS = str.maketrans(_ASCII, "".join("0" if c in _DIGITS else " " for c in _ASCII))
_PUNCTUATION = str.maketrans("", "", _LETTERS + _DIGITS + _SPACES)


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
            elif token.isdigit() and len(token) > _DIGIT_LENGTH:
                for start in range(0, len(token), _DIGIT_LENGTH):
                    pieces.append(token[start : start + _DIGIT_LENGTH])
            else:
                pieces.append(token)
        return pieces

    def count(self, text: str) -> int:
        """Number of tokens in a text: ``len(self.encode(text))`` without the pieces."""
        if text.isascii():
            words = text.translate(_LETTER_RUNS).split()
            numbers = text.translate(_DIGIT_RUNS).split()
            total = len(words) + len(numbers) + len(text.translate(_PUNCTUATION))
            for size in map(len, words):
                if size > _SHORT_WORD:
                    total += (size - 1) // _SUBWORD_LENGTH
            for size in map(len, numbers):
                if size > _DIGIT_LENGTH:
                    total += (size - 1) // _DIGIT_LENGTH
            return total
        total = len(_TOKEN_RE.findall(text))
        for word in _LONG_WORD_RE.findall(text):
            total += (len(word) - 1) // _SUBWORD_LENGTH
        for digits in _LONG_DIGITS_RE.findall(text):
            total += (len(digits) - 1) // _DIGIT_LENGTH
        return total

    def truncate(self, text: str, max_tokens: int) -> str:
        """Truncate text to approximately ``max_tokens`` tokens on a word boundary.

        Keeps whole whitespace-separated words up to the first one that does
        not fit and joins them with single spaces; a text that fits is
        returned as the same object.  A token is at least one character, so a
        text no longer than the budget fits without being counted.  Tokens
        never span whitespace, so when something must be cut one pass over
        the regex matches prices every word.
        """
        if max_tokens <= 0:
            return ""
        if len(text) <= max_tokens or self.count(text) <= max_tokens:
            return text
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
            elif size > _DIGIT_LENGTH and token.isdigit():
                total += -(-size // _DIGIT_LENGTH)
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
