"""Tests for the tokenizer, simulated LLM, prompts, summarizer, CoT and fine-tuning."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloudsim import FAULT_INJECTORS
from repro.core.collection import CollectionStage
from repro.llm import (
    ChainOfThoughtPredictor,
    ChatMessage,
    CompletionResult,
    Demonstration,
    DiagnosticSummarizer,
    FineTunedModel,
    FineTuneExample,
    SimulatedLLM,
    SummaryResult,
    Tokenizer,
    build_direct_prediction_prompt,
    build_prediction_prompt,
    build_summarization_prompt,
    count_tokens,
    parse_prediction,
    truncate_tokens,
)
from repro.llm.prompts import (
    MAX_INPUT_TOKENS,
    MAX_OPTION_TOKENS,
    PREDICTION_CONTEXT,
    SUMMARIZE_INSTRUCTION,
)


#: Pieces the texts below are glued from: punctuation, non-ASCII letters and
#: digits, and every class of whitespace, ASCII and not (what both
#: str.split() and the regex's \s treat as whitespace).
PUNCTUATION = [",", ".", "::", "-", "(", "%)", "_"]
NON_ASCII = ["\u00e9t\u00e9", "\u4e2d\u6587", "\u03a9", "\u0663\u0664", "\u0663" * 7, "\u00b2"]
ASCII_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
NON_ASCII_SPACES = ["\x85", "\xa0", "\u2003"]

#: Long/short words, digit runs of every length mod 3, punctuation, non-ASCII
#: letters and digits, and every class of whitespace, glued in any order.
TOKENIZER_TEXTS = st.lists(
    st.one_of(
        st.text("abcXYZ", min_size=1, max_size=6),
        st.text("abcdefXYZ", min_size=7, max_size=30),
        st.text("0123456789", min_size=1, max_size=10),
        st.sampled_from(PUNCTUATION + NON_ASCII),
        st.sampled_from(ASCII_SPACES + NON_ASCII_SPACES),
    ),
    max_size=40,
).map("".join)


def _insert(text, inserts):
    for at, piece in inserts:
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    return text


#: Letter runs of 1-30 and digit runs of 1-20 (every residue of the long-run
#: arithmetic), ASCII punctuation and ASCII whitespace.
PROMPT_PIECES = (
    ["aKzQ"[size % 4] * size for size in range(1, 31)]
    + ["079"[size % 3] * size for size in range(1, 21)]
    + PUNCTUATION * 2
    + ASCII_SPACES * 2
)

#: Texts of up to ≈4 KB, the size prompts are priced at, from those pieces,
#: and in some texts a few non-ASCII pieces.
PROMPT_TEXTS = st.builds(
    _insert,
    st.integers(0, 500).flatmap(
        lambda size: st.lists(st.sampled_from(PROMPT_PIECES), min_size=size, max_size=size)
    ).map("".join),
    st.one_of(
        st.just([]),
        st.lists(st.tuples(st.integers(0, 5000), st.sampled_from(NON_ASCII + NON_ASCII_SPACES)), max_size=2),
    ),
)


class TestTokenizer:
    def test_counts_positive(self):
        assert count_tokens("hello world") == 2

    def test_long_words_split(self):
        tokenizer = Tokenizer()
        assert tokenizer.count("internationalization") > 1

    def test_truncate_respects_budget(self):
        text = " ".join(["word"] * 200)
        truncated = truncate_tokens(text, 50)
        assert count_tokens(truncated) <= 50

    def test_truncate_zero(self):
        assert truncate_tokens("anything", 0) == ""

    def test_truncate_noop_when_short(self):
        assert truncate_tokens("short text", 100) == "short text"

    @given(st.text(max_size=300))
    @settings(max_examples=50)
    def test_count_never_negative_and_empty_is_zero(self, text):
        assert count_tokens(text) >= 0
        assert count_tokens("") == 0

    @staticmethod
    def reference_truncate(tokenizer, text, max_tokens):
        """The per-word definition ``truncate`` must keep reproducing, priced by ``encode``."""
        if max_tokens <= 0:
            return ""
        if len(tokenizer.encode(text)) <= max_tokens:
            return text
        kept = []
        total = 0
        for word in text.split():
            cost = max(1, len(tokenizer.encode(word)))
            if total + cost > max_tokens:
                break
            kept.append(word)
            total += cost
        return " ".join(kept)

    @given(TOKENIZER_TEXTS)
    @settings(max_examples=200, deadline=None)
    def test_count_prices_what_encode_materialises(self, text):
        tokenizer = Tokenizer()
        assert tokenizer.count(text) == len(tokenizer.encode(text))
        for word in text.split():
            assert tokenizer.count(word) == len(tokenizer.encode(word))

    @classmethod
    def check_truncate(cls, tokenizer, text):
        """Budgets 0, 1, small, around the exact fit, around the length and huge."""
        total = len(tokenizer.encode(text))
        budgets = (0, 1, 3, 7, total - 1, total, total + 1, len(text) - 1, len(text), 10**6)
        for budget in budgets:
            result = tokenizer.truncate(text, budget)
            assert result == cls.reference_truncate(tokenizer, text, budget), budget
            assert len(tokenizer.encode(result)) <= max(budget, 0)
            if budget > 0 and (len(text) <= budget or total <= budget):
                assert result is text, budget

    @given(TOKENIZER_TEXTS)
    @settings(max_examples=200, deadline=None)
    def test_truncate_matches_per_word_reference(self, text):
        self.check_truncate(Tokenizer(), text)

    def check_prompt_scale(self, text):
        tokenizer = Tokenizer()
        assert tokenizer.count(text) == len(tokenizer.encode(text))
        self.check_truncate(tokenizer, text)

    @given(PROMPT_TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_prompt_scale_texts_price_as_encode(self, text):
        self.check_prompt_scale(text)

    @pytest.mark.slow
    @given(PROMPT_TEXTS)
    @settings(max_examples=20_000, deadline=None)
    def test_prompt_scale_texts_price_as_encode_soak(self, text):
        self.check_prompt_scale(text)

    def test_every_ascii_character(self):
        """Alone, doubled and between two long words, for all 128 code points."""
        tokenizer = Tokenizer()
        for code in range(128):
            char = chr(code)
            for text in (char, char * 2, f"internationalization{char}configurations"):
                assert tokenizer.count(text) == len(tokenizer.encode(text)), repr(text)
                self.check_truncate(tokenizer, text)

    @pytest.mark.parametrize("char", ["\u2014", "\u00e9", "\xa0", "\u2003", "\u0663", "\u00b2"])
    def test_one_non_ascii_character_in_a_long_ascii_text(self, char):
        """At the start, in the middle (inside a letter run) and at the end."""
        text = " ".join(
            ("abcdefghij" * 3)[: 1 + i % 30] + "=" + ("1234567890" * 2)[: 1 + i % 20] + ";"
            for i in range(120)
        )
        middle = text.index("abcdefghijabcd", len(text) // 2) + 3
        tokenizer = Tokenizer()
        for mixed in (char + text, text[:middle] + char + text[middle:], text + char):
            assert not mixed.isascii()
            assert tokenizer.count(mixed) == len(tokenizer.encode(mixed))
            self.check_truncate(tokenizer, mixed)

    def test_collected_diagnostic_texts(self, warm_service, registry):
        """What the default handlers collect for every injected fault category."""
        stage = CollectionStage(registry, warm_service.hub)
        texts = []
        for category in sorted(FAULT_INJECTORS):
            for alert in warm_service.inject_and_detect(category).alerts:
                texts.append(stage.handle_alert(alert).incident.diagnostic_info())
        assert len(texts) >= len(FAULT_INJECTORS) and max(map(len, texts)) > 2000
        tokenizer = Tokenizer()
        for text in texts:
            assert tokenizer.count(text) == len(tokenizer.encode(text))
            self.check_truncate(tokenizer, text)
            for budget in (MAX_OPTION_TOKENS, MAX_INPUT_TOKENS, 3000):
                assert tokenizer.truncate(text, budget) == self.reference_truncate(tokenizer, text, budget)


class TestPrompts:
    def test_summarization_prompt_contains_instruction(self):
        prompt = build_summarization_prompt("diagnostic body")
        assert SUMMARIZE_INSTRUCTION in prompt
        assert "diagnostic body" in prompt

    def test_prediction_prompt_structure(self):
        demos = [
            Demonstration("INC-1", "socket exhaustion details", "HubPortExhaustion", 0.9),
            Demonstration("INC-2", "disk full details", "FullDisk", 0.5),
        ]
        prompt = build_prediction_prompt("query incident text", demos)
        assert prompt.text.startswith(PREDICTION_CONTEXT)
        assert "A: Unseen incident." in prompt.text
        assert "category: HubPortExhaustion." in prompt.text
        assert prompt.category_for("A") is None
        assert prompt.category_for("B") == "HubPortExhaustion"
        assert prompt.category_for("C") == "FullDisk"

    def test_too_many_demonstrations_rejected(self):
        demos = [Demonstration(f"i{n}", "x", f"c{n}") for n in range(30)]
        with pytest.raises(ValueError):
            build_prediction_prompt("q", demos)

    def test_parse_prediction_falls_back_to_unseen(self):
        demos = [Demonstration("INC-1", "text", "Cat")]
        prompt = build_prediction_prompt("q", demos)
        parsed = parse_prediction("garbage with no letter", prompt)
        assert parsed.letter == "A"
        assert parsed.is_unseen

    def test_parse_prediction_extracts_choice_and_explanation(self):
        demos = [Demonstration("INC-1", "text", "Cat")]
        prompt = build_prediction_prompt("q", demos)
        parsed = parse_prediction("B: text category: Cat.\nExplanation: matches tokens", prompt)
        assert parsed.letter == "B"
        assert parsed.category == "Cat"
        assert "matches" in parsed.explanation

    def test_direct_prompt(self):
        prompt = build_direct_prediction_prompt("some incident")
        assert "Category:" in prompt


DIAG_TEXT = "\n".join(
    [
        "== Probe results ==",
        "DatacenterHubOutboundProxyProbe probe result from [m1].",
        "Total Probes: 2, Failed Probes: 2",
        "Failed probe error: No such host is known WinSock error 11001",
        "== Error logs ==",
        "InformativeSocketException: No such host is known at TcpClientFactory.Create",
        "== Key metrics ==",
        "Total UDP socket count : 15276",
        "14923: Transport.exe, 203736",
    ]
    + [f"routine noise line {i} nothing interesting happened here today" for i in range(40)]
)


class TestSimulatedLLM:
    def test_summarization_respects_budget(self):
        model = SimulatedLLM()
        summarizer = DiagnosticSummarizer(model)
        result = summarizer.summarize(DIAG_TEXT)
        assert result.word_count <= 140
        assert "socket" in result.text.lower() or "winsock" in result.text.lower()

    def test_short_input_passthrough(self):
        model = SimulatedLLM()
        summarizer = DiagnosticSummarizer(model)
        result = summarizer.summarize("short diagnostic info")
        assert result.text == "short diagnostic info"

    def test_invalid_summary_budget(self):
        with pytest.raises(ValueError):
            DiagnosticSummarizer(SimulatedLLM(), min_words=0)
        with pytest.raises(ValueError):
            DiagnosticSummarizer(SimulatedLLM(), min_words=100, max_words=50)

    def test_multiple_choice_picks_lexically_matching_option(self):
        model = SimulatedLLM()
        demos = [
            Demonstration(
                "INC-1",
                "WinSock error 11001 UDP socket count 15000 Transport.exe exhaustion",
                "HubPortExhaustion",
            ),
            Demonstration(
                "INC-2",
                "System.IO.IOException not enough space on the disk crash",
                "FullDisk",
            ),
        ]
        predictor = ChainOfThoughtPredictor(model)
        prediction = predictor.predict(DIAG_TEXT, demos)
        assert prediction.category == "HubPortExhaustion"
        assert not prediction.is_unseen
        assert prediction.explanation

    def test_unseen_incident_generates_new_label(self):
        model = SimulatedLLM()
        demos = [
            Demonstration("INC-1", "certificate thumbprint mismatch token", "AuthCertIssue"),
            Demonstration("INC-2", "poison message routing crash", "UseRouteResolution"),
        ]
        disk_text = (
            "System.IO.IOException: There is not enough space on the disk "
            "at DiagnosticsLog.Write QueueManager.Persist worker crashed IO exceptions"
        )
        predictor = ChainOfThoughtPredictor(model)
        prediction = predictor.predict(disk_text, demos)
        assert prediction.is_unseen
        assert prediction.new_category  # e.g. IoBottleneck
        assert prediction.label == prediction.new_category

    def test_direct_prediction_without_demos(self):
        prediction = ChainOfThoughtPredictor(SimulatedLLM()).predict(DIAG_TEXT, [])
        assert prediction.chosen_letter == "-"
        assert prediction.label

    def test_usage_tracking(self):
        model = SimulatedLLM()
        model.complete([ChatMessage("user", build_summarization_prompt(DIAG_TEXT))])
        assert model.usage.calls == 1
        assert model.usage.prompt_tokens > 0

    def test_noise_changes_some_answers(self):
        noisy = SimulatedLLM(noise=1.0, seed=1)
        demos = [
            Demonstration("INC-1", "WinSock socket exhaustion Transport.exe", "HubPortExhaustion"),
            Demonstration("INC-2", "disk full IOException", "FullDisk"),
        ]
        prediction = ChainOfThoughtPredictor(noisy).predict(DIAG_TEXT, demos)
        # With noise=1.0 the runner-up is always taken instead of the best.
        assert prediction.category != "HubPortExhaustion" or prediction.is_unseen


class StubModel:
    """Answers every conversation with the same long text; counts nothing."""

    name = "stub"

    def complete(self, messages, temperature=0.0):
        return CompletionResult(" ".join(["word"] * 300), 0, 0, self.name)


class TestDiagnosticSummarizer:
    def test_result_is_text_and_word_count(self):
        fields = [field.name for field in dataclasses.fields(SummaryResult)]
        assert fields == ["text", "word_count"]
        summarizer = DiagnosticSummarizer(StubModel())
        result = summarizer.summarize(DIAG_TEXT)
        assert result.word_count == len(result.text.split()) == 140
        # Equal summaries of different reports are one object while held.
        assert summarizer.summarize(DIAG_TEXT + " again").text is result.text

    def test_each_report_is_priced_once(self, monkeypatch):
        """The only token count the summarizer pays for is the prompt budget
        (``truncate(..., 3000)`` in ``build_summarization_prompt``), and only
        for reports long enough that their length alone does not clear it."""
        counted = []
        original = Tokenizer.count
        monkeypatch.setattr(
            Tokenizer, "count", lambda self, text: counted.append(text) or original(self, text)
        )
        summarizer = DiagnosticSummarizer(StubModel())
        reports = [
            " ".join(f"line{n} socket error on hub{i}" for i in range(200))
            for n in range(5)
        ]
        assert all(len(r) > 3000 and len(r.split()) > summarizer.max_words for r in reports)
        results = summarizer.summarize_many(reports + ["short report"])
        assert [r.word_count for r in results] == [140] * 5 + [2]
        assert counted == reports
        del counted[:]
        assert summarizer.summarize(reports[0]).text == results[0].text
        assert counted == reports[:1]


class TestFineTunedModel:
    def test_finetune_and_predict(self):
        model = FineTunedModel()
        job = model.finetune(
            [
                FineTuneExample("socket exhaustion WinSock UDP", "HubPortExhaustion"),
                FineTuneExample("socket count exceeded proxy failure", "HubPortExhaustion"),
                FineTuneExample("disk full IOException no space", "FullDisk"),
                FineTuneExample("IO exception disk usage crash", "FullDisk"),
            ]
        )
        assert job.examples == 4 and job.labels == 2
        assert model.predict_label("UDP socket exhaustion seen") == "HubPortExhaustion"
        assert model.predict_label("disk has no space IOException") == "FullDisk"
        assert set(model.labels) == {"HubPortExhaustion", "FullDisk"}

    def test_complete_interface(self):
        model = FineTunedModel()
        model.finetune([FineTuneExample("a b c", "X"), FineTuneExample("d e f", "Y")])
        result = model.complete([ChatMessage("user", "a b c")])
        assert result.text == "Category: X"

    def test_empty_finetune_rejected(self):
        with pytest.raises(ValueError):
            FineTunedModel().finetune([])

    def test_predict_before_finetune(self):
        with pytest.raises(RuntimeError):
            FineTunedModel().predict_label("x")
