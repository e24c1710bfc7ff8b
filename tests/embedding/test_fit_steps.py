"""The array step under ``FastTextEmbedder.fit``.

``fit`` takes one SGD step per context pair as a few array operations: the
chunk's negatives come from one ``integers`` call, and a step's words are
scored, and their rows moved, a layer at a time (a word drawn again in the
same step is in the next layer).  The loop it replaced — one ``integers``
call per step, one ``_update`` per step with one scalar sigmoid and two row
updates per sampled word — is kept here as the reference: same draws, same
arithmetic in the same order, so the fitted matrices must agree to the bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen import generate_corpus
from repro.embedding import FastTextConfig, FastTextEmbedder, tokenize


# --------------------------------------------------------------- reference
def _sigmoid(x: float) -> float:
    if x >= 0:
        z = np.exp(-x)
        return float(1.0 / (1.0 + z))
    z = np.exp(x)
    return float(z / (1.0 + z))


def _update(inp, out, rows, target, negatives, lr, events) -> None:
    hidden = inp[rows].mean(axis=0)
    gradient = np.zeros_like(hidden)
    # Positive sample.
    score = _sigmoid(float(hidden @ out[target]))
    delta = lr * (1.0 - score)
    gradient += delta * out[target]
    out[target] += delta * hidden
    # Negative samples.
    kept = [negative for negative in negatives if negative != target]
    events["skipped_target"] += len(negatives) - len(kept)
    events["max_repeat"] = max(events["max_repeat"], max(Counter(kept).values(), default=0))
    events["repeated_rows"] += len(set(rows)) < len(rows)
    for negative in kept:
        score = _sigmoid(float(hidden @ out[negative]))
        delta = -lr * score
        gradient += delta * out[negative]
        out[negative] += delta * hidden
    inp[rows] += gradient / len(rows)


def _reference_pairs(embedder, documents):
    """(input rows, target word id) pairs, encoded token by token."""
    encoded = []
    for document in documents:
        doc = []
        for token in tokenize(document):
            word_id = embedder.vocab.word_id(token)
            doc.append((embedder.vocab.indices(token), word_id if word_id is not None else -1))
        encoded.append(doc)
    window = embedder.config.window
    pairs = []
    for doc in encoded:
        for position, (rows, _) in enumerate(doc):
            if not rows:
                continue
            for other in range(max(0, position - window), min(len(doc), position + window + 1)):
                if other != position and doc[other][1] >= 0:
                    pairs.append((rows, doc[other][1]))
    return pairs


def reference_fit(config, documents):
    """``fit`` as one ``integers`` call and one ``_update`` per step.

    Returns the fitted embedder and what its steps met (negatives equal to
    the target, the most draws of one negative in a step, steps whose input
    rows repeat a row).
    """
    embedder = FastTextEmbedder(config)
    events = {"steps": 0, "skipped_target": 0, "max_repeat": 0, "repeated_rows": 0}
    cfg = embedder.config
    rng = np.random.default_rng(cfg.seed)
    embedder.vocab.fit(documents)
    n_rows = embedder.vocab.num_vectors
    n_words = max(1, embedder.vocab.num_words)
    inp = (rng.random((n_rows, cfg.dim), dtype=np.float64) - 0.5) / np.sqrt(cfg.dim)
    out = np.zeros((n_words, cfg.dim), dtype=np.float64)
    embedder._input, embedder._output = inp, out
    embedder._fit_idf(documents)
    embedder._reset_table()
    embedder._trained = True
    pairs = _reference_pairs(embedder, documents)
    if not pairs:
        return embedder, events
    negative_table = embedder._negative_table()
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        if len(order) > cfg.max_pairs_per_epoch:
            order = order[: cfg.max_pairs_per_epoch]
        for count, index in enumerate(order):
            rows, target = pairs[index]
            negatives = negative_table[rng.integers(0, len(negative_table), size=cfg.negative)]
            _update(inp, out, rows, target, negatives, lr, events)
            events["steps"] += 1
            if count % 10000 == 0:
                progress = (epoch * len(order) + count) / (cfg.epochs * len(order))
                lr = cfg.learning_rate * max(0.05, 1.0 - progress)
    return embedder, events


def assert_same_fit(config, documents, probe_texts=()):
    """``fit`` and the reference agree bitwise (``-0.0`` differs from ``0.0``)."""
    expected, events = reference_fit(config, documents)
    fitted = FastTextEmbedder(config).fit(documents)
    for name in ("_input", "_output"):
        a, b = getattr(fitted, name), getattr(expected, name)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    texts = list(documents) + list(probe_texts)
    assert np.array_equal(
        fitted.embed_many(texts).view(np.uint64), expected.embed_many(texts).view(np.uint64)
    )
    return events


# ------------------------------------------------------------- bench corpus
def test_bench_history_fit_is_bit_identical():
    """The bench's history and fit size: 20,000 steps an epoch cross the
    learning-rate update at step 10,000 inside each epoch."""
    corpus = generate_corpus(80, 30, seed=1, duration_days=180.0)
    texts = [i.diagnostic_info() or i.alert_info() for i in corpus.labelled()]
    config = FastTextConfig(max_pairs_per_epoch=20_000)
    events = assert_same_fit(config, texts, ["MailboxOfflineException on hub machine"])
    assert events["steps"] == 2 * 20_000
    assert events["skipped_target"] > 0 and events["max_repeat"] >= 2


# ------------------------------------------------------------ tiny corpora
WORDS = ["disk", "disks", "full", "socket", "error", "hub", "queue", "port"]


@pytest.mark.parametrize(
    "documents, config, at_least",
    [
        # Two words: nearly every negative is the target or a repeat.
        (["disk full disk full disk"] * 3,
         FastTextConfig(dim=4, negative=5, epochs=2, min_count=1, buckets=50, seed=1),
         {"skipped_target": 1, "max_repeat": 3}),
        # Three buckets: every token's rows repeat a bucket.
        (["socket error hub queue port error socket"] * 2,
         FastTextConfig(dim=6, negative=5, epochs=3, min_count=1, buckets=3, seed=2),
         {"repeated_rows": 1, "max_repeat": 3}),
    ],
    ids=["target-drawn-as-negative", "repeated-rows"],
)
def test_pinned_corner_cases(documents, config, at_least):
    """A word drawn three times in a step goes through layers 0, 1 and 2."""
    events = assert_same_fit(config, documents, ["disk socket unseen"])
    for what, least in at_least.items():
        assert events[what] >= least, what


@pytest.mark.parametrize(
    "documents",
    [[], ["disk", "full"], ["rare words only once"], ["", "12345 678"]],
    ids=["empty", "one-token-docs", "below-min-count", "no-tokens"],
)
def test_corpus_without_pairs(documents):
    config = FastTextConfig(dim=4, min_count=2, buckets=20, seed=4)
    assert reference_fit(config, documents)[1]["steps"] == 0
    assert_same_fit(config, documents, ["disk full"])


@st.composite
def tiny_fits(draw):
    documents = draw(
        st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
            min_size=1,
            max_size=5,
        )
    )
    config = FastTextConfig(
        dim=draw(st.sampled_from([1, 3, 8])),
        window=draw(st.integers(1, 3)),
        negative=draw(st.sampled_from([0, 1, 5])),
        epochs=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.05, 0.5, 4.0])),
        min_count=draw(st.integers(1, 2)),
        buckets=draw(st.sampled_from([1, 2, 7, 500])),
        seed=draw(st.integers(0, 2**16)),
    )
    # The pair cap below, at and above the corpus's pair count.
    probe = FastTextEmbedder(config)
    probe.vocab.fit(documents)
    count = len(_reference_pairs(probe, documents))
    config.max_pairs_per_epoch = draw(
        st.sampled_from([max(0, count - 1), count, count + 1, count // 2, 400_000])
    )
    return documents, config


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tiny_fits())
def test_tiny_fits_are_bit_identical(case):
    documents, config = case
    assert_same_fit(config, documents, ["disk socket", "unseen words here"])


# ------------------------------------------------------------- numpy facts
@pytest.mark.parametrize("table_size", [1_000, 4_321, 100_000])
@pytest.mark.parametrize("negative", [0, 1, 5])
def test_batched_integers_equal_per_call_draws(table_size, negative):
    """One ``integers`` call per chunk draws what one call per step drew,
    and leaves the generator where the per-step calls left it."""
    per_call, batched = np.random.default_rng(7), np.random.default_rng(7)
    expected = [per_call.integers(0, table_size, size=negative) for _ in range(1_001)]
    drawn = batched.integers(0, table_size, size=(1_001, negative))
    assert np.array_equal(drawn, np.array(expected).reshape(1_001, negative))
    assert per_call.bit_generator.state == batched.bit_generator.state
    assert np.array_equal(per_call.permutation(50), batched.permutation(50))


def test_vecdot_equals_per_row_matmul():
    """``np.vecdot(block, hidden)`` sums each row as ``hidden @ row`` does."""
    rng = np.random.default_rng(11)
    for width, dim in [(1, 64), (6, 64), (3, 7), (6, 1)]:
        for _ in range(200):
            block, hidden = rng.standard_normal((width, dim)), rng.standard_normal(dim)
            expected = np.array([hidden @ row for row in block])
            assert np.array_equal(np.vecdot(block, hidden).view(np.uint64), expected.view(np.uint64))


def test_array_logistic_equals_scalar_one():
    """The step's logistic function, applied to an array, equals the
    reference's scalar one on every value, signed zeros and extremes too."""
    rng = np.random.default_rng(13)
    values = np.concatenate(
        [rng.standard_normal(5_000) * s for s in (1e-3, 1.0, 10.0, 300.0)]
        + [np.array([0.0, -0.0, 5e-324, -5e-324, 36.7, 37.5, -745.2, 710.0, -710.0])]
    )
    array = np.exp(np.minimum(values, 0.0)) / (1.0 + np.exp(-np.abs(values)))
    scalar = np.array([_sigmoid(float(value)) for value in values])
    assert np.array_equal(array.view(np.uint64), scalar.view(np.uint64))
