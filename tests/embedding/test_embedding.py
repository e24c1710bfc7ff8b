"""Tests for text utilities, vocabulary, FastText and hashed embedders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding import (
    FastTextClassifier,
    FastTextClassifierConfig,
    FastTextConfig,
    FastTextEmbedder,
    HashedEmbedder,
    Vocabulary,
    character_ngrams,
    jaccard_similarity,
    ngram_hash,
    sentences,
    tokenize,
    unique_preserving_order,
)


class TestTextUtilities:
    def test_tokenize_splits_camel_case(self):
        tokens = tokenize("MailboxOfflineException occurred")
        assert "mailboxofflineexception" in tokens
        assert "mailbox" in tokens and "offline" in tokens

    def test_tokenize_drops_numbers_by_default(self):
        assert "11001" not in tokenize("error 11001 seen")
        assert "11001" in tokenize("error 11001 seen", keep_numbers=True)

    def test_character_ngrams_have_boundaries(self):
        grams = character_ngrams("port", min_n=3, max_n=3)
        assert "<po" in grams and "rt>" in grams

    def test_character_ngrams_invalid(self):
        with pytest.raises(ValueError):
            character_ngrams("port", min_n=0, max_n=2)
        with pytest.raises(ValueError):
            character_ngrams("port", min_n=4, max_n=2)

    def test_ngram_hash_deterministic_and_bounded(self):
        assert ngram_hash("abc", 100) == ngram_hash("abc", 100)
        assert 0 <= ngram_hash("abc", 100) < 100

    def test_sentences_split_lines_and_punctuation(self):
        text = "First line. Second part!\nThird line"
        assert len(sentences(text)) == 3

    def test_unique_preserving_order(self):
        assert unique_preserving_order(["b", "a", "b", "c"]) == ["b", "a", "c"]

    def test_jaccard_similarity_bounds(self):
        assert jaccard_similarity([], []) == 0.0
        assert jaccard_similarity(["a"], ["a"]) == 1.0
        assert jaccard_similarity(["a"], ["b"]) == 0.0

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5), max_size=20))
    def test_jaccard_symmetric(self, tokens):
        other = list(reversed(tokens)) + ["zzz"]
        assert jaccard_similarity(tokens, other) == pytest.approx(
            jaccard_similarity(other, tokens)
        )


class TestVocabulary:
    def test_fit_and_lookup(self):
        vocab = Vocabulary(min_count=1, buckets=100)
        vocab.fit(["socket error socket", "disk full"])
        assert "socket" in vocab
        assert vocab.word_count("socket") == 2
        assert vocab.word_id("missing") is None
        assert vocab.num_vectors == vocab.num_words + 100

    def test_min_count_filters(self):
        vocab = Vocabulary(min_count=2, buckets=10)
        vocab.fit(["rare word word"])
        assert "word" in vocab
        assert "rare" not in vocab

    def test_subword_ids_in_bucket_range(self):
        vocab = Vocabulary(buckets=50)
        vocab.fit(["hello world"])
        for row in vocab.subword_ids("unknownword"):
            assert vocab.num_words <= row < vocab.num_vectors

    def test_oov_word_still_has_indices(self):
        vocab = Vocabulary(buckets=50)
        vocab.fit(["hello"])
        assert vocab.indices("somethingnew")  # subwords only

    def test_encode_documents(self):
        vocab = Vocabulary(buckets=10)
        vocab.fit(["a quick test"])
        encoded = vocab.encode("quick test")
        assert len(encoded) == 2


CORPUS = [
    "WinSock error 11001 socket exhaustion on Transport.exe front door",
    "UDP socket count exceeded on hub machine proxy connect failure",
    "delivery queue length exceeded limit mailbox delivery hang",
    "messages queued for mailbox delivery exceeded the configured limit",
    "invalid certificate thumbprint mismatch token request failed",
    "certificate rotation overrode existing certificate misconfiguration outage",
    "disk full IOException not enough space on the disk diagnostics",
    "IO exception while writing to disk worker crashed disk usage",
]


class TestFastTextEmbedder:
    @pytest.fixture(scope="class")
    def embedder(self):
        config = FastTextConfig(dim=32, epochs=1, seed=3, buckets=2000)
        return FastTextEmbedder(config).fit(CORPUS)

    def test_embedding_shape_and_norm(self, embedder):
        vector = embedder.embed(CORPUS[0])
        assert vector.shape == (32,)
        assert np.linalg.norm(vector) == pytest.approx(
            embedder.config.document_norm, rel=1e-6
        )

    def test_empty_text_embeds_to_zero(self, embedder):
        assert np.allclose(embedder.embed(""), 0.0)

    def test_similar_documents_closer_than_dissimilar(self, embedder):
        socket_a = embedder.embed(CORPUS[0])
        socket_variant = embedder.embed(
            "WinSock error 11001 socket exhaustion on Transport.exe hub machine"
        )
        disk = embedder.embed(CORPUS[6])
        near = np.linalg.norm(socket_a - socket_variant)
        far = np.linalg.norm(socket_a - disk)
        assert near < far

    def test_embed_many_stacks(self, embedder):
        matrix = embedder.embed_many(CORPUS[:3])
        assert matrix.shape == (3, 32)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            FastTextEmbedder(FastTextConfig(dim=8)).embed("text")

    def test_deterministic_given_seed(self):
        config = FastTextConfig(dim=16, epochs=1, seed=5, buckets=500)
        a = FastTextEmbedder(config).fit(CORPUS)
        b = FastTextEmbedder(config).fit(CORPUS)
        # Bitwise: any nondeterminism is a bug, not noise.
        for name in ("_input", "_output"):
            assert np.array_equal(
                getattr(a, name).view(np.uint64), getattr(b, name).view(np.uint64)
            )
        assert np.array_equal(
            a.embed(CORPUS[0]).view(np.uint64), b.embed(CORPUS[0]).view(np.uint64)
        )


class TestFastTextClassifier:
    def test_fit_and_predict_separable_classes(self):
        texts = CORPUS
        labels = ["socket", "socket", "delivery", "delivery", "cert", "cert", "disk", "disk"]
        clf = FastTextClassifier(FastTextClassifierConfig(dim=24, epochs=25, seed=2))
        clf.fit(texts, labels)
        assert clf.predict("UDP socket exhaustion WinSock proxy") == "socket"
        assert clf.predict("disk full IOException no space") == "disk"
        probabilities = clf.predict_proba(texts[0])
        assert pytest.approx(sum(probabilities.values()), abs=1e-6) == 1.0

    def test_fit_validation(self):
        clf = FastTextClassifier()
        with pytest.raises(ValueError):
            clf.fit([], [])
        with pytest.raises(ValueError):
            clf.fit(["a"], ["x", "y"])

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            FastTextClassifier().predict("text")

    def test_predict_many(self):
        clf = FastTextClassifier(FastTextClassifierConfig(dim=8, epochs=5))
        clf.fit(CORPUS[:4], ["a", "a", "b", "b"])
        assert len(clf.predict_many(CORPUS[:2])) == 2


class TestHashedEmbedder:
    def test_deterministic(self):
        a = HashedEmbedder(dim=64).embed("socket error on machine")
        b = HashedEmbedder(dim=64).embed("socket error on machine")
        assert np.allclose(a, b)

    def test_unit_norm(self):
        vector = HashedEmbedder(dim=64).embed("socket error")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert np.allclose(HashedEmbedder(dim=16).embed(""), 0.0)

    def test_long_tokens_dropped(self):
        embedder = HashedEmbedder(dim=32, max_token_length=6)
        assert np.allclose(embedder.embed("Extraordinarily LongTokenNameHere"),
                           embedder.embed("LongTokenNameHere Extraordinarily"))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashedEmbedder(dim=0)

    def test_fit_is_noop(self):
        embedder = HashedEmbedder(dim=8)
        assert embedder.fit(["a"]) is embedder
