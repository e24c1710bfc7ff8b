"""FastText-style embeddings and classifier, implemented in numpy.

The paper uses FastText both as the embedding model of the retrieval stage
("we opt to train a FastText model on our historical incidents", Section
4.2.1) and as a supervised classification baseline (Table 2).  This module
re-implements the two algorithmic pieces it needs:

* :class:`FastTextEmbedder` — unsupervised skip-gram with negative sampling
  over word + hashed-subword vectors; documents embed as the mean of their
  token vectors.
* :class:`FastTextClassifier` — the supervised variant: an averaged
  bag-of-words/subwords representation fed into a softmax layer.

Both are deterministic given their seeds and run offline on a laptop-scale
corpus in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .text import _TOKEN_RE, tokenize
from .vocab import Vocabulary


@dataclass
class FastTextConfig:
    """Hyper-parameters of the FastText embedder."""

    dim: int = 64
    window: int = 4
    negative: int = 5
    epochs: int = 2
    learning_rate: float = 0.05
    min_count: int = 2
    buckets: int = 20000
    seed: int = 13
    #: Cap on context pairs per epoch; keeps training time bounded on large corpora.
    max_pairs_per_epoch: int = 400_000
    #: Norm given to document embeddings.  FastText document vectors are not
    #: unit vectors in practice; the paper's 1/(1+distance) similarity term
    #: assumes distances well above 1 between unrelated incidents, so document
    #: embeddings are normalised and then rescaled to this norm.
    document_norm: float = 6.0


class FastTextEmbedder:
    """Unsupervised subword skip-gram embedder."""

    def __init__(self, config: Optional[FastTextConfig] = None) -> None:
        self.config = config or FastTextConfig()
        self.vocab = Vocabulary(
            min_count=self.config.min_count, buckets=self.config.buckets
        )
        self._input: Optional[np.ndarray] = None   # word+subword vectors
        self._output: Optional[np.ndarray] = None  # context word vectors
        self._idf: Dict[str, float] = {}
        self._default_idf = 1.0
        self._trained = False
        self._reset_table()

    def _reset_table(self) -> None:
        """Start an empty compiled token table (vectors and IDF weights both
        belong to one fit, so ``fit`` calls this)."""
        #: token -> its row in ``_table`` (vector) and ``_table_idf`` (weight);
        #: rows are handed out in first-seen order, the arrays double when full.
        self._token_rows: Dict[str, int] = {}
        self._table = np.zeros((256, self.config.dim))
        self._table_idf = np.zeros(len(self._table))
        #: raw regex match -> rows of the tokens ``tokenize`` expands it to
        #: (itself lower-cased, then its CamelCase parts).  Digit runs
        #: tokenise to nothing and a live stream never runs out of new ones,
        #: so they are not kept.
        self._raw_rows: Dict[str, Tuple[int, ...]] = {}

    def _fit_idf(self, documents: Sequence[str]) -> None:
        """Fit inverse-document-frequency weights for document averaging.

        Rare, discriminative tokens (exception names, component identifiers)
        should dominate a document's embedding, while ubiquitous boilerplate
        ("error", "probe", machine names) should not.  This is the domain
        adaptation a FastText model trained on incident text provides over a
        generic pre-trained embedding.
        """
        document_frequency: Dict[str, int] = {}
        total = 0
        for document in documents:
            total += 1
            for token in set(tokenize(document)):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        self._idf = {
            token: float(np.log((1 + total) / (1 + frequency)) + 1.0)
            for token, frequency in document_frequency.items()
        }
        self._default_idf = float(np.log(1 + total) + 1.0)

    # ------------------------------------------------------------------ train
    def fit(self, documents: Sequence[str]) -> "FastTextEmbedder":
        """Train on a corpus of documents."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.vocab.fit(documents)
        n_rows = self.vocab.num_vectors
        n_words = max(1, self.vocab.num_words)
        self._input = (rng.random((n_rows, cfg.dim), dtype=np.float64) - 0.5) / np.sqrt(cfg.dim)
        self._output = np.zeros((n_words, cfg.dim), dtype=np.float64)
        self._fit_idf(documents)
        self._reset_table()  # rows compiled from the previous fit are stale

        encoded_docs = self._encode_corpus(documents)
        pairs = self._context_pairs(encoded_docs)
        if not pairs:
            self._trained = True
            return self

        negative_table = self._negative_table()
        lr = cfg.learning_rate
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(pairs))
            if len(order) > cfg.max_pairs_per_epoch:
                order = order[: cfg.max_pairs_per_epoch]
            for count, index in enumerate(order):
                rows, target = pairs[index]
                negatives = negative_table[
                    rng.integers(0, len(negative_table), size=cfg.negative)
                ]
                self._update(rows, target, negatives, lr)
                if count % 10000 == 0:
                    # Linear learning-rate decay within the epoch.
                    progress = (epoch * len(order) + count) / (cfg.epochs * len(order))
                    lr = cfg.learning_rate * max(0.05, 1.0 - progress)
        self._trained = True
        return self

    def _encode_corpus(self, documents: Sequence[str]) -> List[List[Tuple[List[int], int]]]:
        """Encode documents as [(subword rows, word id or -1), ...] per token."""
        encoded: List[List[Tuple[List[int], int]]] = []
        for document in documents:
            tokens = tokenize(document)
            doc: List[Tuple[List[int], int]] = []
            for token in tokens:
                word_id = self.vocab.word_id(token)
                rows = self.vocab.indices(token)
                doc.append((rows, word_id if word_id is not None else -1))
            encoded.append(doc)
        return encoded

    def _context_pairs(
        self, encoded_docs: List[List[Tuple[List[int], int]]]
    ) -> List[Tuple[List[int], int]]:
        """(input rows, target word id) skip-gram pairs from the corpus."""
        window = self.config.window
        pairs: List[Tuple[List[int], int]] = []
        for doc in encoded_docs:
            for position, (rows, _) in enumerate(doc):
                if not rows:
                    continue
                lo = max(0, position - window)
                hi = min(len(doc), position + window + 1)
                for other in range(lo, hi):
                    if other == position:
                        continue
                    target = doc[other][1]
                    if target >= 0:
                        pairs.append((rows, target))
        return pairs

    def _negative_table(self) -> np.ndarray:
        """Unigram^0.75 sampling table over word ids."""
        counts = np.array(
            [max(1, self.vocab.word_count(w)) for w in self.vocab.words()],
            dtype=np.float64,
        )
        if counts.size == 0:
            return np.array([0])
        weights = counts ** 0.75
        weights /= weights.sum()
        table_size = min(100_000, max(1000, 50 * counts.size))
        return np.random.default_rng(self.config.seed + 1).choice(
            counts.size, size=table_size, p=weights
        )

    def _update(
        self, rows: List[int], target: int, negatives: np.ndarray, lr: float
    ) -> None:
        assert self._input is not None and self._output is not None
        hidden = self._input[rows].mean(axis=0)
        gradient = np.zeros_like(hidden)
        # Positive sample.
        score = _sigmoid(float(hidden @ self._output[target]))
        delta = lr * (1.0 - score)
        gradient += delta * self._output[target]
        self._output[target] += delta * hidden
        # Negative samples.
        for negative in negatives:
            if negative == target:
                continue
            score = _sigmoid(float(hidden @ self._output[negative]))
            delta = -lr * score
            gradient += delta * self._output[negative]
            self._output[negative] += delta * hidden
        self._input[rows] += gradient / len(rows)

    # ------------------------------------------------------------------ embed
    @property
    def dim(self) -> int:
        """Dimensionality of the produced embeddings."""
        return self.config.dim

    def _token_row(self, token: str) -> int:
        """Table row of a lower-cased token, compiled on first sight."""
        row = self._token_rows.get(token)
        if row is None:
            assert self._input is not None
            row = len(self._token_rows)
            if row == len(self._table):
                self._table = np.concatenate([self._table, np.zeros_like(self._table)])
                self._table_idf = np.concatenate(
                    [self._table_idf, np.zeros_like(self._table_idf)]
                )
            rows = self.vocab.indices(token)
            if rows:
                self._table[row] = self._input[rows].mean(axis=0)
            self._table_idf[row] = self._idf.get(token, self._default_idf)
            self._token_rows[token] = row
        return row

    def _raw_match_rows(self, raw: str) -> Tuple[int, ...]:
        """Table rows of the tokens one raw regex match tokenises to."""
        if raw.isdigit():
            return ()
        rows = tuple(self._token_row(token) for token in tokenize(raw))
        self._raw_rows[raw] = rows
        return rows

    def embed_token(self, token: str) -> np.ndarray:
        """Embedding of a single token (mean of its word + subword rows)."""
        self._require_trained()
        return self._table[self._token_row(token.lower())]

    def embed(self, text: str) -> np.ndarray:
        """Embedding of a document: L2-normalised IDF-weighted mean of tokens."""
        return self.embed_many([text])[0]

    def embed_many(self, texts: Iterable[str]) -> np.ndarray:
        """Embeddings for many documents, stacked row-wise (one matrix out).

        The scalar :meth:`embed` delegates here, so single and batch paths
        share one code path.  A document is read once: each raw regex match
        looks up the table rows of its tokens, the rows gather the token
        vectors and IDF weights out of the compiled table, and the
        IDF-weighted mean is a single vector–matrix product rescaled to
        ``document_norm`` — token order and arithmetic are those of
        embedding token by token, so the result is too, to the bit.  Table
        rows are handed out without a lock: one embedding call at a time
        (the pipeline embeds under the ingestion lock).
        """
        self._require_trained()
        texts = list(texts)
        out = np.zeros((len(texts), self.config.dim))
        raw_rows = self._raw_rows
        for row, text in enumerate(texts):
            ids: List[int] = []
            for raw in _TOKEN_RE.findall(text):
                rows = raw_rows.get(raw)
                if rows is None:
                    rows = self._raw_match_rows(raw)
                ids.extend(rows)
            if not ids:
                continue
            weights = self._table_idf[ids]
            vectors = self._table[ids]
            weight_sum = float(weights.sum())
            mean = weights @ vectors
            if weight_sum > 0:
                mean = mean / weight_sum
            norm = np.linalg.norm(mean)
            if norm != 0:
                mean = mean * (self.config.document_norm / norm)
            out[row] = mean
        return out

    def _require_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("FastTextEmbedder.fit must be called before embedding")


@dataclass
class FastTextClassifierConfig:
    """Hyper-parameters of the supervised FastText classifier."""

    dim: int = 48
    epochs: int = 12
    learning_rate: float = 0.25
    min_count: int = 1
    buckets: int = 20000
    seed: int = 17


class FastTextClassifier:
    """Supervised FastText: averaged bag-of-subwords + softmax."""

    def __init__(self, config: Optional[FastTextClassifierConfig] = None) -> None:
        self.config = config or FastTextClassifierConfig()
        self.vocab = Vocabulary(
            min_count=self.config.min_count, buckets=self.config.buckets
        )
        self._labels: List[str] = []
        self._label_to_id: Dict[str, int] = {}
        self._embeddings: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None

    @property
    def labels(self) -> List[str]:
        """Known class labels, in id order."""
        return list(self._labels)

    def fit(self, texts: Sequence[str], labels: Sequence[str]) -> "FastTextClassifier":
        """Train the classifier on (text, label) pairs."""
        if len(texts) != len(labels):
            raise ValueError("texts and labels must have equal length")
        if not texts:
            raise ValueError("cannot fit on an empty training set")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.vocab.fit(texts)
        self._labels = sorted(set(labels))
        self._label_to_id = {label: i for i, label in enumerate(self._labels)}
        n_rows = self.vocab.num_vectors
        self._embeddings = (rng.random((n_rows, cfg.dim)) - 0.5) / cfg.dim
        self._weights = np.zeros((len(self._labels), cfg.dim))

        encoded = [self._rows_for(text) for text in texts]
        label_ids = np.array([self._label_to_id[label] for label in labels])
        lr = cfg.learning_rate
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(texts))
            for index in order:
                rows = encoded[index]
                if not rows:
                    continue
                self._step(rows, int(label_ids[index]), lr)
            lr = cfg.learning_rate * max(0.05, 1.0 - (epoch + 1) / cfg.epochs)
        return self

    def _rows_for(self, text: str) -> List[int]:
        rows: List[int] = []
        for token in tokenize(text):
            rows.extend(self.vocab.indices(token))
        return rows

    def _step(self, rows: List[int], label_id: int, lr: float) -> None:
        assert self._embeddings is not None and self._weights is not None
        hidden = self._embeddings[rows].mean(axis=0)
        scores = self._weights @ hidden
        probabilities = _softmax(scores)
        probabilities[label_id] -= 1.0  # gradient of cross-entropy
        grad_hidden = self._weights.T @ probabilities
        self._weights -= lr * np.outer(probabilities, hidden)
        self._embeddings[rows] -= lr * grad_hidden / len(rows)

    def predict_proba(self, text: str) -> Dict[str, float]:
        """Class probabilities for a document."""
        if self._embeddings is None or self._weights is None:
            raise RuntimeError("FastTextClassifier.fit must be called before predicting")
        rows = self._rows_for(text)
        if not rows:
            uniform = 1.0 / max(1, len(self._labels))
            return {label: uniform for label in self._labels}
        hidden = self._embeddings[rows].mean(axis=0)
        probabilities = _softmax(self._weights @ hidden)
        return {label: float(probabilities[i]) for i, label in enumerate(self._labels)}

    def predict(self, text: str) -> str:
        """Most likely class label for a document."""
        probabilities = self.predict_proba(text)
        return max(probabilities.items(), key=lambda kv: kv[1])[0]

    def predict_many(self, texts: Sequence[str]) -> List[str]:
        """Predicted labels for many documents."""
        return [self.predict(text) for text in texts]


def _sigmoid(x: float) -> float:
    if x >= 0:
        z = np.exp(-x)
        return float(1.0 / (1.0 + z))
    z = np.exp(x)
    return float(z / (1.0 + z))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()
