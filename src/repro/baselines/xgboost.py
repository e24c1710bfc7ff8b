"""Gradient-boosted trees baseline (the paper's XGBoost comparator).

A from-scratch multi-class gradient-boosting classifier: one regression tree
per class per round fitted to the softmax residuals, with shrinkage.  It
shares XGBoost's relevant behaviour for this study — strong on classes with
many training examples, weak on the long tail — without the native library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .decision_tree import RegressionTree
from .features import LabelEncoder, TfidfConfig, TfidfVectorizer


@dataclass
class GradientBoostingConfig:
    """Hyper-parameters of the boosted-tree classifier."""

    n_rounds: int = 8
    learning_rate: float = 0.3
    max_depth: int = 3
    min_samples_leaf: int = 2
    #: Cap on TF-IDF vocabulary (keeps exact-greedy splits tractable).
    max_features: int = 300
    #: Classes with fewer training examples than this keep their prior score
    #: and get no trees — they cannot be learned and fitting residual trees
    #: for every long-tail class dominates training time otherwise.
    min_class_count: int = 2


class GradientBoostingClassifier:
    """Multi-class gradient boosting over TF-IDF text features."""

    def __init__(self, config: Optional[GradientBoostingConfig] = None) -> None:
        self.config = config or GradientBoostingConfig()
        self.vectorizer = TfidfVectorizer(
            TfidfConfig(max_features=self.config.max_features)
        )
        self.encoder = LabelEncoder()
        self._trees: List[List[RegressionTree]] = []
        self._base_scores: Optional[np.ndarray] = None

    @property
    def classes(self) -> List[str]:
        """Known class labels."""
        return self.encoder.classes

    def fit(self, texts: Sequence[str], labels: Sequence[str]) -> "GradientBoostingClassifier":
        """Train on (text, label) pairs."""
        if len(texts) != len(labels):
            raise ValueError("texts and labels must have equal length")
        if not texts:
            raise ValueError("cannot fit on an empty training set")
        features = self.vectorizer.fit_transform(texts)
        self.encoder.fit(labels)
        label_ids = self.encoder.encode(labels)
        n_samples = features.shape[0]
        n_classes = len(self.encoder.classes)
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), label_ids] = 1.0
        priors = one_hot.mean(axis=0).clip(1e-6, 1.0)
        self._base_scores = np.log(priors)
        scores = np.tile(self._base_scores, (n_samples, 1))
        class_counts = one_hot.sum(axis=0)
        trainable = class_counts >= self.config.min_class_count
        self._trees = []
        for _ in range(self.config.n_rounds):
            probabilities = _softmax_rows(scores)
            residuals = one_hot - probabilities
            round_trees: List[Optional[RegressionTree]] = []
            for class_index in range(n_classes):
                if not trainable[class_index]:
                    round_trees.append(None)
                    continue
                tree = RegressionTree(
                    max_depth=self.config.max_depth,
                    min_samples_leaf=self.config.min_samples_leaf,
                )
                tree.fit(features, residuals[:, class_index])
                update = tree.predict(features)
                scores[:, class_index] += self.config.learning_rate * update
                round_trees.append(tree)
            self._trees.append(round_trees)
        return self

    def _raw_scores(self, features: np.ndarray) -> np.ndarray:
        assert self._base_scores is not None
        scores = np.tile(self._base_scores, (features.shape[0], 1))
        for round_trees in self._trees:
            for class_index, tree in enumerate(round_trees):
                if tree is None:
                    continue
                scores[:, class_index] += self.config.learning_rate * tree.predict(features)
        return scores

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        """Class probabilities for each text."""
        if self._base_scores is None:
            raise RuntimeError("fit must be called before predict_proba")
        features = self.vectorizer.transform(texts)
        return _softmax_rows(self._raw_scores(features))

    def predict(self, texts: Sequence[str]) -> List[str]:
        """Predicted labels for each text."""
        probabilities = self.predict_proba(texts)
        ids = probabilities.argmax(axis=1)
        return self.encoder.decode(ids)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
