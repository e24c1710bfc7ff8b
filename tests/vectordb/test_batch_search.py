"""Tests for the batched search path and incremental inserts.

Covers the guarantees the batch refactor introduced, on a
:class:`ShardedVectorIndex` whose entries span several time-window shards:

* ``search_many`` returns exactly what per-query ``search`` calls return;
* ``history_before_day`` excludes same-day and later incidents (no
  look-ahead when replaying chronological splits);
* with diversity enabled the result is always filled to ``min(k, eligible)``
  from the remaining candidates — filters never silently shrink it;
* a shard grows past its initial capacity one ``add`` at a time, and
  ``add_many`` checks a batch whole before storing any of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vectordb import (
    ShardedVectorIndex,
    SimilarityConfig,
    similarity,
)

ROWS = [
    ("a1", [1.0, 0.0, 0.0], 10.0, "A", "a one"),
    ("a2", [0.9, 0.1, 0.0], 11.0, "A", "a two"),
    ("b1", [0.0, 1.0, 0.0], 11.5, "B", "b one"),
    ("b2", [0.1, 0.9, 0.0], 9.0, "B", "b two"),
    ("c1", [0.0, 0.0, 1.0], 2.0, "C", "c one"),
]


def three_shard_index(similarity_config):
    """:data:`ROWS` in 5-day shards: days 10, 11 and 11.5; day 9; day 2."""
    index = ShardedVectorIndex(similarity_config, window_days=5.0)
    for incident_id, vector, day, category, text in ROWS:
        index.add(incident_id, np.array(vector), day, category, text=text)
    assert len(index.shard_sizes()) == 3
    return index


class TestIncrementalInserts:
    @pytest.mark.parametrize("batch", [1, 7], ids=["add", "add_many"])
    def test_growth_beyond_initial_capacity(self, batch):
        index = ShardedVectorIndex(window_days=1000.0)
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((300, 8))
        for start in range(0, 300, batch):
            rows = range(start, min(start + batch, 300))
            if batch == 1:
                index.add(f"i{start}", vectors[start], float(start), f"cat{start % 7}")
            else:
                index.add_many(
                    [f"i{i}" for i in rows], vectors[start : rows.stop],
                    [float(i) for i in rows], [f"cat{i % 7}" for i in rows],
                )
        assert len(index) == 300 and index.shard_sizes() == {0: 300}
        # Stored vectors are snapped to the scoring grid, 2^-20, and every
        # row written before a growth survives it.
        entries = [index.get(f"i{i}") for i in range(300)]
        snapped = np.rint(vectors * 2.0**20) / 2.0**20
        np.testing.assert_array_equal([entry.vector for entry in entries], snapped)
        assert [entry.created_day for entry in entries] == [float(i) for i in range(300)]
        assert [entry.category for entry in entries] == [f"cat{i % 7}" for i in range(300)]

    def test_add_many_validation(self):
        index = ShardedVectorIndex()
        with pytest.raises(ValueError, match="must align"):
            index.add_many(["a"], np.zeros((2, 3)), [1.0, 2.0], ["x", "y"])
        index.add("a", np.zeros(3), 1.0, "x")
        with pytest.raises(ValueError, match="duplicate incident id in vector store: a$"):
            index.add_many(["a"], np.zeros((1, 3)), [1.0], ["x"])
        with pytest.raises(ValueError, match="vector dimension 2 does not match store dimension 3"):
            index.add_many(["b"], np.zeros((1, 2)), [1.0], ["x"])
        with pytest.raises(ValueError, match="duplicate incident id in vector store: c$"):
            index.add_many(["c", "c"], np.zeros((2, 3)), [1.0, 2.0], ["x", "y"])
        assert len(index) == 1  # failed bulk insert leaves the index untouched


class TestSearchMany:
    @pytest.fixture(scope="class")
    def big_index(self):
        """250 entries over 120 days in 10-day shards."""
        rng = np.random.default_rng(11)
        index = ShardedVectorIndex(SimilarityConfig(alpha=0.3, k=5), window_days=10.0)
        vectors = rng.standard_normal((250, 12))
        index.add_many(
            incident_ids=[f"i{i}" for i in range(250)],
            vectors=vectors,
            created_days=rng.uniform(0.0, 120.0, size=250),
            categories=[f"cat{i % 17}" for i in range(250)],
            texts=[f"text {i}" for i in range(250)],
        )
        assert len(index.shard_sizes()) >= 2
        return index

    def _queries(self, dim=12, count=8):
        rng = np.random.default_rng(29)
        return rng.standard_normal((count, dim)), rng.uniform(0.0, 120.0, size=count)

    def test_search_many_matches_per_query_search(self, big_index):
        queries, days = self._queries()
        batch = big_index.search_many(queries, days)
        for row in range(queries.shape[0]):
            single = big_index.search(queries[row], days[row])
            assert [n.incident_id for n in batch[row]] == [
                n.incident_id for n in single
            ]
            assert [n.similarity for n in batch[row]] == pytest.approx(
                [n.similarity for n in single]
            )

    def test_search_many_with_filters_matches_search(self, big_index):
        queries, days = self._queries(count=5)
        excludes = [{f"i{row}", f"i{row + 40}"} for row in range(5)]
        batch = big_index.search_many(
            queries, days, k=4, exclude_ids=excludes, history_before_day=80.0
        )
        for row in range(5):
            single = big_index.search(
                queries[row],
                days[row],
                k=4,
                exclude_ids=excludes[row],
                history_before_day=80.0,
            )
            assert [n.incident_id for n in batch[row]] == [
                n.incident_id for n in single
            ]

    def test_duplicate_queries_share_results(self, big_index):
        queries, days = self._queries(count=2)
        stacked = np.vstack([queries[0], queries[0], queries[1]])
        stacked_days = np.array([days[0], days[0], days[1]])
        results = big_index.search_many(stacked, stacked_days)
        assert [n.incident_id for n in results[0]] == [
            n.incident_id for n in results[1]
        ]
        # Result lists must still be independent objects.
        results[0].pop()
        assert len(results[1]) == 5

    def test_scores_match_similarity_formula(self, big_index):
        queries, days = self._queries(count=3)
        # k = every entry: diversity fills the list with all 250 of them.
        found = big_index.search_many(queries, days, k=250)
        for row in range(3):
            by_id = {n.incident_id: n for n in found[row]}
            assert len(by_id) == 250
            for incident_id in ("i0", "i57", "i249"):
                entry = by_id[incident_id].entry
                expected = similarity(
                    queries[row], entry.vector, days[row], entry.created_day, alpha=0.3
                )
                assert by_id[incident_id].similarity == pytest.approx(expected)

    def test_empty_batch_and_empty_store(self, big_index):
        assert big_index.search_many(np.zeros((0, 12)), np.zeros(0)) == []
        empty = ShardedVectorIndex()
        assert empty.search_many(np.ones((2, 4)), np.zeros(2)) == [[], []]


class TestLookAheadAndFillGuarantees:
    def test_history_before_day_excludes_same_day(self):
        index = three_shard_index(SimilarityConfig(alpha=0.0, k=5, diverse_categories=False))
        neighbors = index.search(
            np.array([1.0, 0.0, 0.0]), query_day=12.0, history_before_day=11.0
        )
        ids = {n.incident_id for n in neighbors}
        # a2 was created exactly on day 11 -> excluded (strictly before).
        assert ids == {"a1", "b2", "c1"}

    def test_diverse_result_filled_to_min_k_eligible(self):
        # 5 entries, 3 categories; k=5 with diversity on must return all 5.
        index = three_shard_index(SimilarityConfig(alpha=0.0, k=5, diverse_categories=True))
        neighbors = index.search(np.array([1.0, 0.0, 0.0]), query_day=12.0)
        assert len(neighbors) == 5

    def test_filters_never_shrink_below_guarantee(self):
        # Exclusions + cutoff leave 3 eligible entries; k=4 -> exactly 3 back.
        index = three_shard_index(SimilarityConfig(alpha=0.0, k=4, diverse_categories=True))
        neighbors = index.search(
            np.array([1.0, 0.0, 0.0]),
            query_day=12.0,
            exclude_ids={"a1", "b1"},
            history_before_day=11.2,
        )
        assert [n.incident_id for n in neighbors[:1]] == ["a2"]
        assert len(neighbors) == 3  # a2, b2, c1 — every eligible entry

    def test_fill_prefers_distinct_categories_first(self):
        index = three_shard_index(SimilarityConfig(alpha=0.0, k=3, diverse_categories=True))
        neighbors = index.search(np.array([1.0, 0.0, 0.0]), query_day=12.0)
        categories = [n.category for n in neighbors]
        assert len(set(categories)) == 3  # one of each while categories remain

    def test_deep_diversity_scan_beyond_prefix(self):
        # 60 near-identical entries of one category ranked first, one distant
        # entry of a second category: diversity must find it even though it
        # is far outside the 2k candidate pool, with the X entries split
        # over two shards and Y in the second.
        index = ShardedVectorIndex(
            SimilarityConfig(alpha=0.0, k=2, diverse_categories=True), window_days=5.0
        )
        rng = np.random.default_rng(2)
        for i in range(60):
            day = 3.0 if i % 2 else 10.0
            index.add(f"x{i}", np.array([1.0, 0.0]) + rng.normal(0, 1e-4, 2), day, "X")
        index.add("y0", np.array([-1.0, 0.0]), 10.0, "Y")
        assert len(index.shard_sizes()) == 2
        neighbors = index.search(np.array([1.0, 0.0]), query_day=10.0)
        assert len(neighbors) == 2
        assert {n.category for n in neighbors} == {"X", "Y"}
