"""The prediction prompt prices each distinct demonstration summary once.

``build_prediction_prompt`` renders option text through the bounded memo
``_option_text``.  The per-option ``truncate_tokens`` rendering it replaced is
kept here as the reference: prompts must stay byte-identical, while a summary
offered again costs no tokenizer call.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.datagen import generate_corpus
from repro.llm import (
    Demonstration,
    DiagnosticSummarizer,
    SimulatedLLM,
    Tokenizer,
    build_prediction_prompt,
    count_tokens,
    truncate_tokens,
)
from repro.llm.prompts import (
    MAX_INPUT_TOKENS,
    MAX_OPTION_TOKENS,
    PREDICTION_CONTEXT,
    _LETTERS,
    _option_text,
)


def reference_prompt(incident_text, demonstrations):
    """``build_prediction_prompt`` as it was: every option truncated where it appears."""
    lines = [PREDICTION_CONTEXT, ""]
    lines.append("Input: " + truncate_tokens(incident_text, MAX_INPUT_TOKENS))
    lines.append("")
    lines.append("Options:")
    option_categories = {"A": None}
    lines.append("A: Unseen incident.")
    for index, demonstration in enumerate(demonstrations):
        letter = _LETTERS[index + 1]
        summary = truncate_tokens(demonstration.summary, MAX_OPTION_TOKENS)
        lines.append(f"{letter}: {summary} category: {demonstration.category}.")
        option_categories[letter] = demonstration.category
    return "\n".join(lines), option_categories


def assert_matches_reference(incident_text, demonstrations):
    prompt = build_prediction_prompt(incident_text, demonstrations)
    text, option_categories = reference_prompt(incident_text, demonstrations)
    assert prompt.text == text
    assert prompt.option_categories == option_categories
    assert prompt.demonstrations == list(demonstrations)


def corpus_summaries():
    history = generate_corpus(
        total_incidents=60, total_categories=12, seed=3, duration_days=30.0
    ).labelled()
    texts = [incident.diagnostic_info() or incident.alert_info() for incident in history]
    summaries = DiagnosticSummarizer(SimulatedLLM()).summarize_many(texts)
    return history, texts, [summary.text for summary in summaries]


def over_budget(n):
    """``n`` distinct summaries, each well past the option budget."""
    return [
        " ".join(f"ConnectionPool{index}x{i} failed 1234567 times" for i in range(80))
        + f" variant {index}"
        for index in range(n)
    ]


#: Short words, long CamelCase words, digit runs, punctuation and Unicode
#: whitespace, glued in any order.
PIECES = st.one_of(
    st.text("abcXYZ", min_size=1, max_size=6),
    st.sampled_from(
        ["TransportServiceHealthProbe", "MailboxDeliveryAgentWaitForStore", "IOException"]
    ),
    st.text("0123456789", min_size=1, max_size=12),
    st.sampled_from([",", ".", "::", "[", "]", "-", "\u00e9t\u00e9", "\u0663" * 7]),
    st.sampled_from([" ", "\t", "\n", "\xa0", "\u2003", "\x1c", "\x85"]),
)


@st.composite
def summaries(draw):
    """Short, exactly-at-budget, just-over and far-over-budget summaries."""
    kind = draw(st.sampled_from(["drawn", "at", "over"]))
    if kind == "drawn":
        return "".join(draw(st.lists(PIECES, max_size=draw(st.sampled_from([30, 400])))))
    words = MAX_OPTION_TOKENS + (0 if kind == "at" else draw(st.integers(1, 40)))
    text = " ".join(draw(st.sampled_from(["w", "disk", "42", "."])) for _ in range(words))
    assert (count_tokens(text) == MAX_OPTION_TOKENS) == (kind == "at")
    return text


class TestOptionTextMemo:
    def test_corpus_prompts_match_per_option_truncation(self):
        _option_text.cache_clear()
        history, texts, texts_summaries = corpus_summaries()
        assert all(count_tokens(summary) > MAX_OPTION_TOKENS for summary in texts_summaries)
        demonstrations = [
            Demonstration(incident.incident_id, summary, incident.category, 0.5)
            for incident, summary in zip(history, texts_summaries)
        ]
        for start, text in enumerate(texts):
            # Overlapping windows: every summary is offered up to five times.
            assert_matches_reference(text, demonstrations[start : start + 5])

    @given(st.lists(summaries(), min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_drawn_prompts_match_per_option_truncation(self, drawn, data):
        demonstrations = [
            Demonstration(f"INC-{index}", summary, f"Cat{index % 3}", 0.1 * index)
            for index, summary in enumerate(drawn)
        ]
        incident_text = data.draw(summaries())
        # The same options again, reordered: now rendered from the memo.
        for _ in range(2):
            assert_matches_reference(incident_text, demonstrations)
            demonstrations = demonstrations[::-1]

    def test_each_distinct_option_is_priced_once(self, monkeypatch):
        _option_text.cache_clear()
        priced = []
        original = Tokenizer.truncate
        monkeypatch.setattr(
            Tokenizer,
            "truncate",
            lambda self, text, max_tokens: priced.append(max_tokens)
            or original(self, text, max_tokens),
        )
        distinct = over_budget(7)
        prompts = 40
        for position in range(prompts):
            chosen = [distinct[(position + offset) % len(distinct)] for offset in range(5)]
            build_prediction_prompt(
                f"query {position}",
                [Demonstration(f"I{k}", s, "Cat") for k, s in enumerate(chosen)],
            )
        assert priced.count(MAX_OPTION_TOKENS) == len(distinct)  # not prompts * 5
        assert priced.count(MAX_INPUT_TOKENS) == prompts  # the input is not memoised

    def test_a_summary_that_fits_is_its_own_option_text(self):
        _option_text.cache_clear()
        summary = "".join(["socket exhaustion on hub ", "42"])
        assert _option_text(summary) is summary
        assert _option_text.cache_info().currsize == 1
        long_summary = over_budget(1)[0]
        cut = _option_text(long_summary)
        assert cut is not long_summary and count_tokens(cut) <= MAX_OPTION_TOKENS
        assert _option_text(long_summary) is cut  # one copy, handed out again

    def test_prompt_stays_within_its_token_budget(self):
        demonstrations = [
            Demonstration(f"INC-{k}", summary, f"Category{k}")
            for k, summary in enumerate(over_budget(5))
        ]
        incident_text = over_budget(6)[-1] * 4
        assert count_tokens(incident_text) > MAX_INPUT_TOKENS
        prompt = build_prediction_prompt(incident_text, demonstrations)
        header = count_tokens(build_prediction_prompt("", []).text)
        tags = sum(
            count_tokens(f"{letter}: category: {d.category}.")
            for letter, d in zip(_LETTERS[1:], demonstrations)
        )
        budget = MAX_INPUT_TOKENS + len(demonstrations) * MAX_OPTION_TOKENS + tags + header
        assert count_tokens(prompt.text) <= budget
        uncut = sum(count_tokens(d.summary) for d in demonstrations)
        assert uncut > len(demonstrations) * MAX_OPTION_TOKENS
