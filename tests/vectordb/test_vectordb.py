"""Tests for the similarity formula, the index's entries and KNN search.

The KNN behaviour runs on a :class:`ShardedVectorIndex` whose entries span
two time-window shards, so every guarantee holds across a shard boundary.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectordb import (
    ShardedVectorIndex,
    SimilarityConfig,
    euclidean_distance,
    similarity,
    temporal_decay,
)


class TestSimilarityFormula:
    def test_identical_vectors_same_day_is_one(self):
        a = np.array([1.0, 2.0])
        assert similarity(a, a, 5.0, 5.0, alpha=0.3) == pytest.approx(1.0)

    def test_distance_reduces_similarity(self):
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert similarity(a, b, 0.0, 0.0) == pytest.approx(1.0 / 6.0)

    def test_temporal_gap_reduces_similarity(self):
        a = np.array([1.0])
        near = similarity(a, a, 0.0, 1.0, alpha=0.3)
        far = similarity(a, a, 0.0, 30.0, alpha=0.3)
        assert near > far

    def test_alpha_zero_disables_decay(self):
        a = np.array([1.0])
        assert similarity(a, a, 0.0, 100.0, alpha=0.0) == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            euclidean_distance(np.array([1.0]), np.array([1.0, 2.0]))

    def test_negative_alpha_raises(self):
        with pytest.raises(ValueError):
            temporal_decay(0.0, 1.0, alpha=-0.1)
        with pytest.raises(ValueError):
            SimilarityConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            SimilarityConfig(k=0)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=8),
        st.lists(st.floats(-100, 100), min_size=2, max_size=8),
        st.floats(0, 300),
        st.floats(0, 300),
        st.floats(0, 1),
    )
    @settings(max_examples=60)
    def test_similarity_bounded_and_symmetric(self, a, b, ta, tb, alpha):
        size = min(len(a), len(b))
        va, vb = np.array(a[:size]), np.array(b[:size])
        score = similarity(va, vb, ta, tb, alpha=alpha)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(similarity(vb, va, tb, ta, alpha=alpha))

    @given(st.floats(0, 50), st.floats(0, 50))
    def test_temporal_decay_monotone_in_gap(self, t1, t2):
        near = temporal_decay(0.0, min(t1, t2))
        far = temporal_decay(0.0, max(t1, t2))
        assert near >= far


def two_shard_index(similarity_config=None):
    """Four entries in two 5-day shards: days 10, 11 and 11.5, and day 2."""
    index = ShardedVectorIndex(similarity_config, window_days=5.0)
    index.add("a1", np.array([1.0, 0.0, 0.0]), created_day=10.0, category="A", text="a one")
    index.add("a2", np.array([0.9, 0.1, 0.0]), created_day=11.0, category="A", text="a two")
    index.add("b1", np.array([0.0, 1.0, 0.0]), created_day=11.5, category="B", text="b one")
    index.add("c1", np.array([0.0, 0.0, 1.0]), created_day=2.0, category="C", text="c one")
    assert len(index.shard_sizes()) == 2
    return index


class TestKnn:
    def test_add_and_get(self):
        index = two_shard_index()
        assert len(index) == 4 and "a1" in index and "missing" not in index
        entry = index.get("b1")
        assert (entry.incident_id, entry.created_day, entry.category, entry.text) == (
            "b1", 11.5, "B", "b one"
        )
        np.testing.assert_array_equal(entry.vector, [0.0, 1.0, 0.0])
        assert index.get("missing") is None
        assert index.categories() == ["A", "B", "C"]

    def test_search_orders_by_similarity(self):
        index = two_shard_index(SimilarityConfig(alpha=0.0, k=4, diverse_categories=False))
        neighbors = index.search(np.array([1.0, 0.0, 0.0]), query_day=12.0)
        assert neighbors[0].incident_id == "a1"
        assert [n.incident_id for n in neighbors][:2] == ["a1", "a2"]

    def test_diverse_categories_dedupes(self):
        index = two_shard_index(SimilarityConfig(alpha=0.0, k=3, diverse_categories=True))
        neighbors = index.search(np.array([1.0, 0.0, 0.0]), query_day=12.0)
        categories = [n.category for n in neighbors]
        assert len(categories) == len(set(categories)) == 3

    def test_fill_when_fewer_categories_than_k(self):
        index = two_shard_index(SimilarityConfig(alpha=0.0, k=4, diverse_categories=True))
        neighbors = index.search(np.array([1.0, 0.0, 0.0]), query_day=12.0)
        assert len(neighbors) == 4  # 3 distinct categories + 1 filler

    def test_temporal_decay_prefers_recent(self):
        index = two_shard_index(SimilarityConfig(alpha=0.9, k=1, diverse_categories=False))
        neighbors = index.search(np.array([0.0, 0.0, 1.0]), query_day=12.0)
        # c1 is the exact match but is 10 days old; with strong decay the
        # recent b1 wins.
        assert neighbors[0].incident_id == "b1"

    def test_exclude_ids_and_history_cutoff(self):
        index = two_shard_index(SimilarityConfig(alpha=0.0, k=4, diverse_categories=False))
        neighbors = index.search(
            np.array([1.0, 0.0, 0.0]), query_day=12.0, exclude_ids={"a1"}, history_before_day=11.0
        )
        ids = [n.incident_id for n in neighbors]
        assert "a1" not in ids
        assert "b1" not in ids  # created at 11.5 >= cutoff

    def test_query_dimension_mismatch(self):
        index = two_shard_index()
        with pytest.raises(ValueError):
            index.search(np.array([1.0]), query_day=1.0)

    def test_empty_store(self):
        index = ShardedVectorIndex()
        assert index.search(np.array([1.0]), query_day=1.0) == []

    def test_scores_match_formula(self):
        index = two_shard_index(SimilarityConfig(alpha=0.3, k=4, diverse_categories=False))
        query = np.array([0.5, 0.5, 0.0])
        neighbors = index.search(query, query_day=12.0)
        assert sorted(n.incident_id for n in neighbors) == ["a1", "a2", "b1", "c1"]
        for neighbor in neighbors:
            entry = neighbor.entry
            expected = similarity(query, entry.vector, 12.0, entry.created_day, alpha=0.3)
            assert neighbor.similarity == pytest.approx(expected)
