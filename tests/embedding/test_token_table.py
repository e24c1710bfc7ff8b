"""The compiled token table under ``FastTextEmbedder.embed_many``.

``embed_many`` reads a document once — raw regex matches to table rows,
rows to two gathers — where it used to embed it token by token, and reads
each distinct line once per call.  The per-token body is kept here as the
reference: same tokens in the same order through the same arithmetic, so
the two must agree to the bit.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen import generate_corpus
from repro.embedding import FastTextConfig, FastTextEmbedder, tokenize


def reference_embed_many(embedder, texts):
    """``embed_many`` as it was before the table: one ``embed_token`` call and
    one IDF lookup per token, stacked."""
    out = np.zeros((len(texts), embedder.config.dim))
    for row, text in enumerate(texts):
        tokens = tokenize(text)
        if not tokens:
            continue
        weights = np.array(
            [embedder._idf.get(token, embedder._default_idf) for token in tokens]
        )
        vectors = np.stack([embedder.embed_token(token) for token in tokens])
        weight_sum = float(weights.sum())
        mean = weights @ vectors
        if weight_sum > 0:
            mean = mean / weight_sum
        norm = np.linalg.norm(mean)
        if norm != 0:
            mean = mean * (embedder.config.document_norm / norm)
        out[row] = mean
    return out


@pytest.fixture(scope="module")
def history_texts():
    corpus = generate_corpus(
        total_incidents=60, total_categories=18, seed=5, duration_days=90.0
    )
    texts = [i.diagnostic_info() or i.alert_info() for i in corpus.labelled()]
    assert len(texts) >= 40
    return texts


def small_config():
    return FastTextConfig(dim=32, epochs=1, seed=3, buckets=2000)


@pytest.fixture(scope="module")
def fitted(history_texts):
    """Fitted on the first third of the history, so the rest brings OOV words."""
    return FastTextEmbedder(small_config()).fit(history_texts[: len(history_texts) // 3])


@pytest.fixture()
def embedder(fitted):
    """A private copy: the tests below look at (and fill) the table."""
    return copy.deepcopy(fitted)


#: CamelCase identifiers, snake.dotted ids, digit runs (ASCII and not), words
#: the fit never saw, one-letter non-tokens and punctuation; drawn with
#: replacement so tokens repeat, down to empty and numbers-only texts.
TABLE_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(
            [
                "MailboxOfflineException", "IOException", "HTTPProxy2Handler",
                "transport.exe", "hub_machine.queue_depth", "Exchange.Store.Worker",
                "error", "Error", "ERROR", "socket", "a", "Zz", "x9", "v1.2.3",
                "11001", "0", "3.14", "٣٤", "machine0042", "::", "-", "(%)",
            ]
        ),
        st.text("abcXYZ_.09", min_size=1, max_size=12),
        st.text("0123456789", min_size=1, max_size=8),
    ),
    max_size=30,
).map(" ".join)


#: Report-like lines for texts that share them: drawn lines, empty and
#: blank lines, a lone carriage return and digit-only lines.
SHARED_LINES = st.one_of(
    TABLE_TEXTS,
    st.sampled_from(["", " ", "\r", "11001", "42 7", "error: 3.14"]),
    st.text("0123456789 ", min_size=1, max_size=8),
)


class TestMatchesPerTokenReference:
    def test_corpus_texts_bit_identical(self, embedder, history_texts):
        produced = embedder.embed_many(history_texts)
        assert np.array_equal(produced, reference_embed_many(embedder, history_texts))
        assert np.any(produced)
        oov = {t for text in history_texts for t in tokenize(text)} - set(embedder._idf)
        assert oov, "the held-out part of the history should bring unseen words"

    @given(st.lists(TABLE_TEXTS, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_drawn_texts_bit_identical(self, fitted, texts):
        embedder = copy.copy(fitted)
        embedder._reset_table()
        assert np.array_equal(
            embedder.embed_many(texts), reference_embed_many(embedder, texts)
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_texts_sharing_lines_embed_as_each_text_alone(self, fitted, data):
        """``embed_many`` tokenises a line once per call; no bit may move."""
        lines = data.draw(st.lists(SHARED_LINES, min_size=1, max_size=5))
        texts = data.draw(
            st.lists(
                st.builds(
                    lambda picked, separator: separator.join(picked),
                    st.lists(st.sampled_from(lines), max_size=6),
                    st.sampled_from(["\n", "\r\n"]),
                ),
                max_size=5,
            )
        )
        together = copy.copy(fitted)
        together._reset_table()
        produced = together.embed_many(texts)
        alone = copy.copy(fitted)
        alone._reset_table()
        for row, text in enumerate(texts):
            assert np.array_equal(produced[row], alone.embed(text))
        assert np.array_equal(produced, reference_embed_many(together, texts))

    def test_empty_and_numbers_only_embed_to_zero(self, embedder):
        produced = embedder.embed_many(["", "  \n", "11001 42 7", "3.14"])
        assert not np.any(produced)
        assert not embedder._raw_rows and not embedder._token_rows

    def test_single_equals_batch_row(self, embedder, history_texts):
        batch = embedder.embed_many(history_texts[:5])
        for row, text in enumerate(history_texts[:5]):
            assert np.array_equal(embedder.embed(text), batch[row])

    def test_embed_token_reads_the_table(self, embedder):
        vector = embedder.embed_token("SocketException")
        row = embedder._token_rows["socketexception"]
        assert np.array_equal(vector, embedder._table[row])
        rows = embedder.vocab.indices("socketexception")
        assert np.array_equal(vector, embedder._input[rows].mean(axis=0))
        assert embedder._table_idf[row] == embedder._default_idf


class TestTableLifecycle:
    def test_grows_across_capacity_boundary(self, embedder):
        capacity = len(embedder._table)
        # One token per word: lower-case, so no CamelCase parts.
        words = [f"oov{chr(97 + i % 26)}word{i}x" for i in range(capacity + 40)]
        before = embedder.embed_many([" ".join(words[: capacity - 1])])
        assert len(embedder._table) == capacity
        text = " ".join(words)
        produced = embedder.embed_many([text])
        assert len(embedder._token_rows) == len(words)
        assert len(embedder._table) == len(embedder._table_idf) == 2 * capacity
        assert np.array_equal(produced, reference_embed_many(embedder, [text]))
        # Rows compiled before the growth kept their place and content.
        assert np.array_equal(embedder.embed_many([" ".join(words[: capacity - 1])]), before)
        fresh = copy.copy(embedder)
        fresh._reset_table()
        assert np.array_equal(fresh.embed_many([text]), produced)

    def test_second_fit_invalidates_table_and_raw_memo(self, history_texts):
        embedder = FastTextEmbedder(small_config()).fit(history_texts[:10])
        first = embedder.embed_many(history_texts[:20])
        assert embedder._token_rows and embedder._raw_rows
        embedder.fit(history_texts[10:30])
        assert not embedder._token_rows and not embedder._raw_rows
        second = embedder.embed_many(history_texts[:20])
        assert not np.array_equal(first, second)
        assert np.array_equal(second, reference_embed_many(embedder, history_texts[:20]))
        refit = FastTextEmbedder(small_config()).fit(history_texts[10:30])
        assert np.array_equal(second, refit.embed_many(history_texts[:20]))

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_embed_identically(self, embedder, history_texts, clone):
        half = len(history_texts) // 2
        embedder.embed_many(history_texts[:half])  # a partly filled table travels
        twin = clone(embedder)
        assert np.array_equal(
            twin.embed_many(history_texts), embedder.embed_many(history_texts)
        )
        # ... and is the twin's own: filling one does not fill the other.
        rows = len(embedder._token_rows)
        twin.embed_many(["NeverSeenBeforeIdentifier appears"])
        assert len(embedder._token_rows) == rows

    def test_digit_runs_add_no_memo_entries(self, embedder):
        embedder.embed_many(["socket error 11001 on machine"])
        raws, rows = len(embedder._raw_rows), len(embedder._token_rows)
        stream = [f"socket error {n} on machine {n * 7919} ٣٤{n}" for n in range(500)]
        embedder.embed_many(stream)
        assert (len(embedder._raw_rows), len(embedder._token_rows)) == (raws, rows)


class TestNoPerTokenWork:
    def test_seen_texts_never_call_embed_token(self, embedder, history_texts, monkeypatch):
        first = embedder.embed_many(history_texts)
        calls = []
        original = FastTextEmbedder.embed_token
        monkeypatch.setattr(
            FastTextEmbedder,
            "embed_token",
            lambda self, token: calls.append(token) or original(self, token),
        )
        assert np.array_equal(embedder.embed_many(history_texts), first)
        assert calls == []
        embedder.embed_token("socket")
        assert calls == ["socket"]  # the counter does count
