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

#: Steps between two learning-rate updates of :meth:`FastTextEmbedder.fit`.
_LR_PERIOD = 10_000

#: Distinct lines whose table rows :meth:`FastTextEmbedder.embed_many` keeps
#: between calls; a memo that reaches it starts over.  The benchmark's whole
#: recorded burst traffic (52 flash crowds, 2,508 embedded reports) has 5,536
#: distinct lines; a full memo of such lines holds ≈ 3.7 MB.
_LINE_MEMO_CAP = 8_192


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
        """Start an empty compiled token table and empty memos over it
        (vectors and IDF weights both belong to one fit, and the memos
        hold table rows, so ``fit`` calls this)."""
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
        #: line -> the ``intp`` table rows of its tokens, in order; at most
        #: ``_LINE_MEMO_CAP`` lines (see :meth:`embed_many`).
        self._line_rows: Dict[str, np.ndarray] = {}

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
        """Train on a corpus of documents.

        Plain sequential skip-gram SGD with negative sampling: each epoch
        visits the context pairs in a fresh permutation (at most
        ``max_pairs_per_epoch`` of them), and each (input rows, target)
        pair takes one step that sees every update of the steps before it.
        A step scores the target and ``negative`` words drawn from the
        unigram table against the mean of the input rows, moves each output
        row by ``delta * hidden`` and the input rows by the mean of
        ``delta * output row``; a negative equal to the target is skipped.

        A step is a handful of array operations rather than one update per
        sampled word.  The same word drawn twice in one step must see the
        row its first draw just moved, so the step's words are split into
        *layers* (a word's layer is how often it was already drawn in the
        step) and a layer is one gather/score/scatter; almost every step is
        a single layer.  The arithmetic and its order are those of updating
        one word at a time, so the fitted matrices are bit-identical to that
        loop (``tests/embedding/test_fit_steps.py`` keeps it as the
        reference).  Negatives are drawn for up to ``_LR_PERIOD`` steps at
        once, which gives the same draws as one call per step.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.vocab.fit(documents)
        n_rows = self.vocab.num_vectors
        n_words = max(1, self.vocab.num_words)
        self._input = (rng.random((n_rows, cfg.dim), dtype=np.float64) - 0.5) / np.sqrt(cfg.dim)
        self._output = np.zeros((n_words, cfg.dim), dtype=np.float64)
        self._fit_idf(documents)
        self._reset_table()  # rows compiled from the previous fit are stale

        rows_of, targets = self._context_pairs(self._encode_corpus(documents))
        if not rows_of:
            self._trained = True
            return self

        negative_table = self._negative_table()
        lr = cfg.learning_rate
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(rows_of))[: cfg.max_pairs_per_epoch]
            steps = len(order)
            # The learning rate changes after steps 0, P, 2P, ... (P =
            # _LR_PERIOD), so each chunk of steps between two changes runs
            # at one rate.
            bounds = [0, *range(1, steps, _LR_PERIOD), steps]
            for start, stop in zip(bounds, bounds[1:]):
                self._fit_chunk(order[start:stop], rows_of, targets, negative_table, rng, lr)
                if (stop - 1) % _LR_PERIOD == 0:
                    # Linear learning-rate decay within the epoch.
                    progress = (epoch * steps + stop - 1) / (cfg.epochs * steps)
                    lr = cfg.learning_rate * max(0.05, 1.0 - progress)
        self._trained = True
        return self

    def _fit_chunk(
        self,
        pairs: np.ndarray,
        rows_of: List[np.ndarray],
        targets: np.ndarray,
        negative_table: np.ndarray,
        rng: np.random.Generator,
        lr: float,
    ) -> None:
        """One SGD step per context pair in ``pairs``, in order, at rate ``lr``."""
        assert self._input is not None and self._output is not None
        inp, out = self._input, self._output
        steps, width = len(pairs), 1 + self.config.negative
        # Slot 0 of a step is its target, the others its negatives.
        ids = np.empty((steps, width), dtype=np.intp)
        ids[:, 0] = targets[pairs]
        ids[:, 1:] = negative_table[
            rng.integers(0, len(negative_table), size=(steps, width - 1))
        ]
        kept = ids != ids[:, :1]
        kept[:, 0] = True
        # A kept slot's layer: how many earlier kept slots hold the same word.
        earlier = np.tril(ids[:, :, None] == ids[:, None, :], -1) & kept[:, None, :]
        layer = np.where(kept, earlier.sum(axis=2), width)
        # A step's kept slots ordered by layer, then slot: layer L is the run
        # ``bounds[L]:bounds[L + 1]`` of its ``layer_ids``.  Its gradient
        # terms are computed in that order; ``unsort`` lists them in slot
        # order, the order they are summed in.
        by_layer = np.argsort(layer * width + np.arange(width), axis=1)
        layer_ids = np.take_along_axis(ids, by_layer, axis=1)
        kept_first = np.argsort(~kept, axis=1, kind="stable")
        unsort = np.take_along_axis(np.argsort(by_layer, axis=1), kept_first, axis=1)
        layer_bounds = (layer[:, :, None] < np.arange(width + 1)).sum(axis=1).tolist()

        for step, pair in enumerate(pairs.tolist()):
            rows = rows_of[pair]
            k = len(rows)
            gathered = inp.take(rows, axis=0)
            hidden = np.add.reduce(gathered, axis=0)  # bitwise ``.mean(axis=0)``
            hidden /= k
            bounds = layer_bounds[step]
            kept_slots = bounds[-1]
            terms = np.empty((kept_slots, inp.shape[1]))
            for lo, hi in zip(bounds, bounds[1:]):
                if lo == hi:
                    break
                word_ids = layer_ids[step, lo:hi]
                block = out.take(word_ids, axis=0)
                # One ``ddot`` per row, as ``hidden @ row``; ``block @ hidden``
                # (a gemv) sums in another order.
                dots = np.vecdot(block, hidden)
                # The logistic function as exp(min(d, 0)) / (1 + exp(-|d|)):
                # the same IEEE operations as evaluating it by the sign of d.
                score = np.exp(np.minimum(dots, 0.0)) / (1.0 + np.exp(-np.abs(dots)))
                delta = -lr * score
                if lo == 0:
                    delta[0] = lr * (1.0 - score[0])  # the target
                delta = delta[:, None]
                np.multiply(delta, block, out=terms[lo:hi])
                moved = delta * hidden
                moved += block
                out[word_ids] = moved
            if bounds[1] != kept_slots:  # more than one layer
                terms = terms.take(unsort[step, :kept_slots], axis=0)
            # Summed row after row, as a running ``gradient += term`` would.
            gradient = np.add.reduce(terms, axis=0)
            gradient /= k
            gathered += gradient
            inp[rows] = gathered  # as ``+=``, even where ``rows`` repeats a row

    def _encode_corpus(self, documents: Sequence[str]) -> List[List[Tuple[np.ndarray, int]]]:
        """Encode documents as [(subword rows, word id or -1), ...] per token.

        Each distinct token is looked up once; its occurrences share one
        ``intp`` row array.
        """
        lookup: Dict[str, Tuple[np.ndarray, int]] = {}
        encoded: List[List[Tuple[np.ndarray, int]]] = []
        for document in documents:
            doc: List[Tuple[np.ndarray, int]] = []
            for token in tokenize(document):
                entry = lookup.get(token)
                if entry is None:
                    word_id = self.vocab.word_id(token)
                    entry = lookup[token] = (
                        np.array(self.vocab.indices(token), dtype=np.intp),
                        word_id if word_id is not None else -1,
                    )
                doc.append(entry)
            encoded.append(doc)
        return encoded

    def _context_pairs(
        self, encoded_docs: List[List[Tuple[np.ndarray, int]]]
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Skip-gram pairs from the corpus: their input rows, and target word ids."""
        window = self.config.window
        rows_of: List[np.ndarray] = []
        targets: List[int] = []
        for doc in encoded_docs:
            for position, (rows, _) in enumerate(doc):
                if not len(rows):
                    continue
                lo = max(0, position - window)
                hi = min(len(doc), position + window + 1)
                for other in range(lo, hi):
                    if other == position:
                        continue
                    target = doc[other][1]
                    if target >= 0:
                        rows_of.append(rows)
                        targets.append(target)
        return rows_of, np.array(targets, dtype=np.intp)

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

    def _line_match_rows(self, line: str) -> np.ndarray:
        """Table rows of one line's tokens, memoised (see :meth:`embed_many`)."""
        raw_rows = self._raw_rows
        ids: List[int] = []
        for raw in _TOKEN_RE.findall(line):
            rows = raw_rows.get(raw)
            if rows is None:
                rows = self._raw_match_rows(raw)
            ids.extend(rows)
        if len(self._line_rows) >= _LINE_MEMO_CAP:
            self._line_rows.clear()
        rows_of_line = self._line_rows[line] = np.array(ids, dtype=np.intp)
        return rows_of_line

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

        Incidents recur, and so do the lines of their reports (the same log
        line, the same metric table), within a wave and across waves.  A
        line's table rows are memoised for the life of the fit, as one
        ``intp`` array, so a recurring line is tokenised once and a text's
        rows are one ``np.concatenate`` of its lines' arrays.
        ``_TOKEN_RE`` never matches across a newline, so that is the same
        list a whole-text pass builds.  The memo holds at most
        ``_LINE_MEMO_CAP`` lines (≈ 3.7 MB of report lines) and is emptied
        when a new line finds it full; ``fit`` empties it too, with the
        table its rows point into.
        """
        self._require_trained()
        texts = list(texts)
        out = np.zeros((len(texts), self.config.dim))
        line_rows = self._line_rows
        for row, text in enumerate(texts):
            parts = []
            for line in text.split("\n"):
                rows = line_rows.get(line)
                if rows is None:
                    rows = self._line_match_rows(line)
                parts.append(rows)
            ids = np.concatenate(parts)
            if not ids.shape[0]:
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


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()
