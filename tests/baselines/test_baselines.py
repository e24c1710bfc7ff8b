"""Tests for TF-IDF features, trees, gradient boosting and the method suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    FastTextBaseline,
    FineTunedGptBaseline,
    GptPromptVariant,
    GradientBoostingClassifier,
    GradientBoostingConfig,
    LabelEncoder,
    RegressionTree,
    TfidfConfig,
    TfidfVectorizer,
    default_method_suite,
)

DOCS = [
    "socket exhaustion winsock udp transport proxy",
    "socket count exceeded proxy connect failure winsock",
    "disk full ioexception no space diagnostics write",
    "disk usage high ioexception crash worker space",
    "certificate thumbprint mismatch token request failed",
    "certificate rotation override misconfiguration token outage",
]
LABELS = ["socket", "socket", "disk", "disk", "cert", "cert"]


class TestTfidf:
    def test_fit_transform_shape_and_norm(self):
        vectorizer = TfidfVectorizer(TfidfConfig(min_df=1))
        matrix = vectorizer.fit_transform(DOCS)
        assert matrix.shape[0] == len(DOCS)
        norms = np.linalg.norm(matrix, axis=1)
        assert np.all((norms > 0.99) & (norms < 1.01))

    def test_min_df_filters_rare_terms(self):
        vectorizer = TfidfVectorizer(TfidfConfig(min_df=2))
        vectorizer.fit(DOCS)
        assert "winsock" in vectorizer.vocabulary
        assert "rotation" not in vectorizer.vocabulary

    def test_max_features_cap(self):
        vectorizer = TfidfVectorizer(TfidfConfig(min_df=1, max_features=5))
        vectorizer.fit(DOCS)
        assert vectorizer.num_features <= 5

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(DOCS)

    def test_unknown_tokens_give_zero_row(self):
        vectorizer = TfidfVectorizer(TfidfConfig(min_df=1))
        vectorizer.fit(DOCS)
        row = vectorizer.transform(["zzz qqq www"])
        assert np.allclose(row, 0.0)


class TestLabelEncoder:
    def test_round_trip(self):
        encoder = LabelEncoder().fit(["b", "a", "b"])
        assert encoder.classes == ["a", "b"]
        ids = encoder.encode(["a", "b", "missing"])
        assert list(ids) == [0, 1, -1]
        assert encoder.decode(ids) == ["a", "b", "<unknown>"]


class TestRegressionTree:
    def test_fits_simple_split(self):
        features = np.array([[0.0], [0.1], [0.9], [1.0]])
        targets = np.array([0.0, 0.0, 1.0, 1.0])
        tree = RegressionTree(max_depth=2, min_samples_leaf=1).fit(features, targets)
        predictions = tree.predict(features)
        assert predictions[0] < 0.5 < predictions[-1]
        assert tree.depth() >= 1

    def test_constant_target_yields_leaf(self):
        features = np.array([[0.0], [1.0]])
        targets = np.array([3.0, 3.0])
        tree = RegressionTree().fit(features, targets)
        assert tree.depth() == 0
        assert np.allclose(tree.predict(features), 3.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=6, max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_predictions_within_target_range(self, values):
        features = np.array([[v] for v in values])
        targets = np.array(values)
        tree = RegressionTree(max_depth=3, min_samples_leaf=1).fit(features, targets)
        predictions = tree.predict(features)
        assert predictions.min() >= targets.min() - 1e-9
        assert predictions.max() <= targets.max() + 1e-9


class TestGradientBoosting:
    def test_learns_separable_classes(self):
        clf = GradientBoostingClassifier(
            GradientBoostingConfig(n_rounds=6, max_features=50, min_class_count=1)
        )
        clf.fit(DOCS, LABELS)
        assert clf.predict(["winsock socket proxy exhaustion"]) == ["socket"]
        assert clf.predict(["disk ioexception space"]) == ["disk"]
        probabilities = clf.predict_proba(DOCS)
        assert probabilities.shape == (len(DOCS), 3)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_validation_errors(self):
        clf = GradientBoostingClassifier()
        with pytest.raises(ValueError):
            clf.fit([], [])
        with pytest.raises(ValueError):
            clf.fit(["a"], ["x", "y"])
        with pytest.raises(RuntimeError):
            clf.predict_proba(["a"])

    def test_rare_classes_skipped_but_predictable_from_prior(self):
        docs = DOCS + ["totally unique singleton incident text"]
        labels = LABELS + ["rare"]
        clf = GradientBoostingClassifier(
            GradientBoostingConfig(n_rounds=3, max_features=50, min_class_count=2)
        )
        clf.fit(docs, labels)
        assert "rare" in clf.classes  # class exists even without trees


class TestMethodSuite:
    def test_default_suite_names_match_table2(self):
        names = [m.name for m in default_method_suite()]
        assert names == [
            "FastText",
            "XGBoost",
            "Fine-tune GPT",
            "GPT-4 Prompt",
            "GPT-4 Embed.",
            "RCACopilot (GPT-3.5)",
            "RCACopilot (GPT-4)",
        ]

    def test_simple_baselines_fit_and_predict(self, tiny_corpus):
        train, test = tiny_corpus.chronological_split(0.75)
        for method in (FastTextBaseline(), FineTunedGptBaseline(), GptPromptVariant()):
            method.fit(train)
            label = method.predict(test.all()[0])
            assert isinstance(label, str) and label
