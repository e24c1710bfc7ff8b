"""Tests for the pluggable retrieval layer: protocol, parity and persistence.

The contract under test: the flat and sharded index implementations return
*identical* neighbour lists for every query — sharding and bound-based
pruning are invisible to callers.  Alongside the parity property tests sit
the persistence round-trip regressions (dtype, capacity re-growth, cached
squared-norm extension) backing the independent-shard persistence work, and
the loud-KeyError contract of ``update_category`` on both backends.
"""

from __future__ import annotations

import copy
import os
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import IndexCorruptionError
from repro.vectordb import (
    FlatVectorIndex,
    ShardedVectorIndex,
    SimilarityConfig,
    VectorIndex,
    VectorStore,
    build_index,
    load_index,
    time_bucket,
)


def populated(index, count=400, dim=8, seed=9, categories=23, duration=120.0):
    rng = np.random.default_rng(seed)
    index.add_many(
        incident_ids=[f"i{i}" for i in range(count)],
        vectors=rng.standard_normal((count, dim)),
        created_days=rng.uniform(0.0, duration, size=count),
        categories=[f"cat{i % categories}" for i in range(count)],
        texts=[f"text {i}" for i in range(count)],
    )
    return index


def both_indexes(similarity, window_days=15.0, **kwargs):
    flat = populated(FlatVectorIndex(similarity), **kwargs)
    sharded = populated(ShardedVectorIndex(similarity, window_days=window_days), **kwargs)
    return flat, sharded


def assert_same_results(flat_results, sharded_results):
    assert len(flat_results) == len(sharded_results)
    for flat_neighbors, sharded_neighbors in zip(flat_results, sharded_results):
        assert [n.incident_id for n in flat_neighbors] == [
            n.incident_id for n in sharded_neighbors
        ]
        assert [n.similarity for n in sharded_neighbors] == pytest.approx(
            [n.similarity for n in flat_neighbors]
        )


class TestFlatShardedParity:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("diverse", [True, False])
    def test_plain_search_parity(self, alpha, diverse):
        similarity = SimilarityConfig(alpha=alpha, k=5, diverse_categories=diverse)
        flat, sharded = both_indexes(similarity)
        rng = np.random.default_rng(31)
        queries = rng.standard_normal((10, 8))
        days = rng.uniform(0.0, 150.0, size=10)
        assert_same_results(
            flat.search_many(queries, days), sharded.search_many(queries, days)
        )

    def test_filtered_search_parity(self):
        similarity = SimilarityConfig(alpha=0.3, k=4)
        flat, sharded = both_indexes(similarity)
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((6, 8))
        days = rng.uniform(60.0, 130.0, size=6)
        excludes = [{f"i{row}", f"i{row + 17}"} for row in range(6)]
        for kwargs in (
            dict(exclude_ids=excludes),
            dict(history_before_day=90.0),
            dict(categories={f"cat{i}" for i in range(7)}),
            dict(
                exclude_ids=excludes,
                history_before_day=100.0,
                categories={f"cat{i}" for i in range(12)},
                k=7,
            ),
        ):
            assert_same_results(
                flat.search_many(queries, days, **kwargs),
                sharded.search_many(queries, days, **kwargs),
            )

    def test_scalar_search_matches_batch(self):
        similarity = SimilarityConfig(alpha=0.3, k=5)
        _, sharded = both_indexes(similarity)
        rng = np.random.default_rng(77)
        query = rng.standard_normal(8)
        single = sharded.search(query, query_day=110.0)
        batch = sharded.search_many(query.reshape(1, -1), [110.0])[0]
        assert [n.incident_id for n in single] == [n.incident_id for n in batch]

    @given(
        entries=st.lists(
            st.tuples(
                st.lists(
                    st.floats(-5, 5, allow_nan=False, width=32), min_size=3, max_size=3
                ),
                st.floats(0, 100, allow_nan=False),
                st.sampled_from(["A", "B", "C", "D"]),
            ),
            min_size=1,
            max_size=40,
        ),
        query=st.lists(
            st.floats(-5, 5, allow_nan=False, width=32), min_size=3, max_size=3
        ),
        query_day=st.floats(0, 120, allow_nan=False),
        alpha=st.sampled_from([0.0, 0.3, 1.0]),
        k=st.integers(1, 6),
        diverse=st.booleans(),
        window=st.sampled_from([3.0, 10.0, 40.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity_property(self, entries, query, query_day, alpha, k, diverse, window):
        """Random stores, windows and configs: identical neighbour lists."""
        similarity = SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse)
        flat = FlatVectorIndex(similarity)
        sharded = ShardedVectorIndex(similarity, window_days=window)
        for index, (vector, day, category) in enumerate(entries):
            for target in (flat, sharded):
                target.add(f"i{index}", np.array(vector), day, category)
        assert_same_results(
            [flat.search(np.array(query), query_day)],
            [sharded.search(np.array(query), query_day)],
        )

    @given(
        entries=st.lists(
            st.tuples(
                # Tie-heavy on purpose: tiny integer coordinate alphabet and
                # integer days make many (distance, day-gap) pairs — and
                # therefore scores — exactly equal, so tie-breaking by
                # global insertion sequence is what is actually under test.
                st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=3, max_size=3),
                st.integers(0, 30).map(float),
                st.sampled_from(["A", "B"]),
            ),
            min_size=1,
            max_size=40,
        ),
        query=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=3, max_size=3),
        query_day=st.integers(0, 40).map(float),
        alpha=st.sampled_from([0.0, 0.3, 1.0]),
        k=st.integers(1, 6),
        diverse=st.booleans(),
        window=st.sampled_from([3.0, 10.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_tie_heavy_parity_property(
        self, entries, query, query_day, alpha, k, diverse, window
    ):
        """Tie-heavy corpora: sharded == flat, exactly."""
        similarity = SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse)
        flat = FlatVectorIndex(similarity)
        sharded = ShardedVectorIndex(similarity, window_days=window)
        for index, (vector, day, category) in enumerate(entries):
            for target in (flat, sharded):
                target.add(f"i{index}", np.array(vector), day, category)
        assert_same_results(
            [flat.search(np.array(query), query_day)],
            [sharded.search(np.array(query), query_day)],
        )

    def test_empty_category_filter_means_no_filter_on_both_backends(self):
        similarity = SimilarityConfig(alpha=0.3, k=4)
        flat, sharded = both_indexes(similarity, count=60)
        rng = np.random.default_rng(17)
        queries = rng.standard_normal((3, 8))
        days = rng.uniform(0.0, 120.0, size=3)
        flat_results = flat.search_many(queries, days, categories=set())
        sharded_results = sharded.search_many(queries, days, categories=set())
        assert all(len(neighbors) == 4 for neighbors in flat_results)
        assert_same_results(flat_results, sharded_results)

    def test_duplicate_queries_deduplicated_in_batch(self):
        """Recurring identical queries are scanned once and share results."""
        similarity = SimilarityConfig(alpha=0.3, k=5)
        _, sharded = both_indexes(similarity)
        rng = np.random.default_rng(41)
        query = rng.standard_normal(8)
        stacked = np.vstack([query] * 6)
        before = sharded.stats()["shards_scanned"]
        results = sharded.search_many(stacked, [100.0] * 6)
        scanned = sharded.stats()["shards_scanned"] - before
        single = sharded.search(query, 100.0)
        for neighbors in results:
            assert [n.incident_id for n in neighbors] == [
                n.incident_id for n in single
            ]
        # 6 identical queries must not scan 6x the shards of one query.
        assert scanned <= 2 * sharded.stats()["shard_count"]
        # Result lists must still be independent objects.
        results[0].pop()
        assert len(results[1]) == 5

    def test_parity_survives_category_updates(self):
        similarity = SimilarityConfig(alpha=0.3, k=5)
        flat, sharded = both_indexes(similarity)
        for incident_id in ("i3", "i77", "i201"):
            flat.update_category(incident_id, "Corrected")
            sharded.update_category(incident_id, "Corrected")
        rng = np.random.default_rng(13)
        queries = rng.standard_normal((5, 8))
        days = rng.uniform(100.0, 140.0, size=5)
        assert_same_results(
            flat.search_many(queries, days), sharded.search_many(queries, days)
        )


class TestShardLayoutAndPruning:
    def test_entries_land_in_time_window_shards(self):
        similarity = SimilarityConfig()
        sharded = populated(ShardedVectorIndex(similarity, window_days=15.0))
        sizes = sharded.shard_sizes()
        assert sum(sizes.values()) == len(sharded) == 400
        for key in sizes:
            assert 0 <= key <= time_bucket(120.0, 15.0)
        entry = sharded.get("i0")
        assert time_bucket(entry.created_day, 15.0) in sizes

    def test_temporal_pruning_scans_minority_of_shards(self):
        similarity = SimilarityConfig(alpha=0.3, k=5)
        sharded = populated(
            ShardedVectorIndex(similarity, window_days=10.0),
            count=3000,
            duration=300.0,
        )
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((8, 8))
        sharded.search_many(queries, rng.uniform(280.0, 300.0, size=8))
        stats = sharded.stats()
        assert stats["shard_count"] >= 25
        assert stats["scanned_shard_ratio"] < 0.5
        assert stats["shards_pruned"] > 0

    def test_alpha_zero_never_prunes(self):
        similarity = SimilarityConfig(alpha=0.0, k=5)
        sharded = populated(ShardedVectorIndex(similarity, window_days=10.0))
        rng = np.random.default_rng(3)
        sharded.search_many(rng.standard_normal((4, 8)), [0.0, 40.0, 80.0, 120.0])
        stats = sharded.stats()
        assert stats["shards_pruned"] == 0.0
        assert stats["scanned_shard_ratio"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "filters",
        [
            dict(),
            dict(history_before_day=120.0),
            dict(categories={"cat1", "cat4", "cat9"}),
            dict(exclude_ids=[{f"i{row}", f"i{row + 40}"} for row in range(16)]),
        ],
        ids=["plain", "history_before_day", "categories", "exclude_ids"],
    )
    def test_finished_queries_account_for_every_shard(self, filters):
        """scanned + pruned + skipped == considered.

        A query the category exit finishes books all its remaining shards
        as pruned in one step; nothing may be lost or counted twice.
        """
        similarity = SimilarityConfig(alpha=0.3, k=3)
        flat, sharded = both_indexes(
            similarity, window_days=10.0, count=1200, duration=240.0
        )
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((16, 8))
        days = rng.uniform(0.0, 260.0, size=16)
        assert_same_results(
            flat.search_many(queries, days, **filters),
            sharded.search_many(queries, days, **filters),
        )
        stats = sharded.stats()
        assert stats["shards_considered"] == 16 * stats["shard_count"]
        assert (
            stats["shards_scanned"] + stats["shards_pruned"] + stats["shards_skipped"]
            == stats["shards_considered"]
        )
        assert stats["shards_pruned"] > 0

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda index: pickle.loads(pickle.dumps(index))],
        ids=["deepcopy", "pickle"],
    )
    def test_index_that_searched_survives_copies(self, clone):
        """No scan state may stick to the index (benchmarks deepcopy it)."""
        _, sharded = both_indexes(SimilarityConfig(alpha=0.3, k=4), count=120)
        rng = np.random.default_rng(8)
        queries = rng.standard_normal((4, 8))
        days = rng.uniform(0.0, 130.0, size=4)
        before = sharded.search_many(queries, days)
        twin = clone(sharded)
        assert twin.stats() == sharded.stats()
        assert_same_results(before, twin.search_many(queries, days))

    def test_stats_shape_is_shared_across_backends(self):
        flat, sharded = both_indexes(SimilarityConfig())
        rng = np.random.default_rng(1)
        for index in (flat, sharded):
            index.search_many(rng.standard_normal((3, 8)), [10.0, 50.0, 90.0])
            stats = index.stats()
            assert stats["entries"] == 400.0
            assert stats["queries"] == 3.0
            assert 0.0 < stats["scanned_shard_ratio"] <= 1.0
        assert flat.stats()["shard_count"] == 1.0
        assert sharded.stats()["shard_count"] > 1.0


class TestUpdateCategoryContract:
    """Satellite: unknown ids must fail loudly, naming the id, on both backends."""

    @pytest.mark.parametrize("backend", ["flat", "sharded"])
    def test_unknown_id_raises_keyerror_with_id(self, backend):
        index = populated(build_index(backend, SimilarityConfig()), count=20)
        with pytest.raises(KeyError, match="INC-MISSING-42"):
            index.update_category("INC-MISSING-42", "NewLabel")

    @pytest.mark.parametrize("backend", ["flat", "sharded"])
    def test_known_id_updates_in_place(self, backend):
        index = populated(build_index(backend, SimilarityConfig()), count=20)
        index.update_category("i7", "Corrected")
        assert index.get("i7").category == "Corrected"
        assert "Corrected" in index.categories()

    def test_vector_store_unknown_id_raises_keyerror_with_id(self):
        store = VectorStore()
        store.add("present", np.ones(3), 1.0, "A")
        with pytest.raises(KeyError, match="absent"):
            store.update_category("absent", "B")


class TestPersistence:
    """Satellite: save/load round trips guard the shard persistence work."""

    def test_store_roundtrip_dtype_and_capacity_regrowth(self, tmp_path):
        store = VectorStore()
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((70, 6)).astype(np.float32)  # narrower input
        store.add_many(
            incident_ids=[f"i{i}" for i in range(70)],
            vectors=vectors,
            created_days=[float(i) for i in range(70)],
            categories=[f"cat{i % 5}" for i in range(70)],
        )
        path = str(tmp_path / "flat.npz")
        store.save(path)
        loaded = VectorStore.load(path)
        # dtype: the store always widens to float64, including through disk.
        assert loaded.matrix().dtype == np.float64
        assert loaded.created_days().dtype == np.float64
        # capacity re-growth: keep inserting far beyond the loaded size.
        more = rng.standard_normal((200, 6))
        loaded.add_many(
            incident_ids=[f"j{i}" for i in range(200)],
            vectors=more,
            created_days=[float(i) for i in range(200)],
            categories=["late"] * 200,
        )
        assert len(loaded) == 270
        np.testing.assert_allclose(loaded.matrix()[70:], more)

    def test_store_roundtrip_squared_norm_cache_extension(self, tmp_path):
        store = VectorStore()
        store.add_many(
            incident_ids=["a", "b"],
            vectors=np.array([[3.0, 4.0], [1.0, 0.0]]),
            created_days=[1.0, 2.0],
            categories=["A", "B"],
        )
        path = str(tmp_path / "norms.npz")
        store.save(path)
        loaded = VectorStore.load(path)
        np.testing.assert_allclose(loaded.squared_norms(), [25.0, 1.0])
        # The cache must extend (not go stale) when rows are added after a
        # load-then-score sequence.
        loaded.add("c", np.array([2.0, 2.0]), 3.0, "C")
        np.testing.assert_allclose(loaded.squared_norms(), [25.0, 1.0, 8.0])

    def test_sharded_save_writes_manifest_codes_and_one_segment_per_shard(
        self, tmp_path
    ):
        """The v4 layout, flat in the directory (round trips: test_persistence)."""
        sharded = populated(ShardedVectorIndex(SimilarityConfig(), window_days=20.0))
        target = str(tmp_path / "segment-index")
        sharded.save(target)
        assert sorted(os.listdir(target)) == sorted(
            ["codes-00000001.bin", "manifest.json"]
            + [f"seg-{key}-00000001.bin" for key in sharded.shard_sizes()]
        )

    def test_parent_written_v3_directory_is_a_retired_format(self):
        """A v3 (single ``arena.bin``) directory names its version and the rebuild.

        ``fixtures/parent_v3_index`` was written by a commit that still read
        v3; it stays only as this test's input.
        """
        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "parent_v3_index"
        )
        with pytest.raises(IndexCorruptionError, match="version 3.*rebuild the index"):
            load_index(fixture, similarity=SimilarityConfig())

    def test_store_and_index_accept_pathlib_paths(self, tmp_path):
        """Satellite: every save/load entry point takes ``pathlib.Path``."""
        store = VectorStore()
        rng = np.random.default_rng(15)
        store.add_many(
            incident_ids=[f"i{i}" for i in range(12)],
            vectors=rng.standard_normal((12, 4)),
            created_days=[float(i) for i in range(12)],
            categories=[f"cat{i % 3}" for i in range(12)],
        )
        store_path = tmp_path / "store.npz"  # a Path, not a str
        store.save(store_path)
        loaded_store = VectorStore.load(store_path)
        assert len(loaded_store) == 12
        np.testing.assert_array_equal(loaded_store.matrix(), store.matrix())
        # ...and without the .npz suffix (the legacy str path appended it).
        assert len(VectorStore.load(tmp_path / "store")) == 12

        similarity = SimilarityConfig(alpha=0.3, k=3)
        sharded = populated(ShardedVectorIndex(similarity, window_days=20.0), count=50)
        index_path = tmp_path / "path-index"
        sharded.save(index_path)
        reloaded = load_index(index_path, similarity=similarity)
        assert isinstance(reloaded, ShardedVectorIndex)
        assert len(reloaded) == 50
        query = rng.standard_normal(8)
        assert_same_results(
            [sharded.search(query, 60.0)], [reloaded.search(query, 60.0)]
        )
        reloaded.close()

    def test_load_index_dispatches_on_layout(self, tmp_path):
        similarity = SimilarityConfig(alpha=0.3, k=3)
        flat, sharded = both_indexes(similarity, count=30)
        flat_path = str(tmp_path / "flat.npz")
        sharded_path = str(tmp_path / "sharded")
        flat.save(flat_path)
        sharded.save(sharded_path)
        reloaded_flat = load_index(flat_path, similarity=similarity)
        reloaded_sharded = load_index(sharded_path, similarity=similarity)
        assert isinstance(reloaded_flat, FlatVectorIndex)
        assert isinstance(reloaded_sharded, ShardedVectorIndex)
        assert isinstance(reloaded_flat, VectorIndex)
        assert isinstance(reloaded_sharded, VectorIndex)
        rng = np.random.default_rng(2)
        query = rng.standard_normal(8)
        assert_same_results(
            [reloaded_flat.search(query, 50.0)], [reloaded_sharded.search(query, 50.0)]
        )


class TestQueryDaysAlignment:
    @pytest.mark.parametrize("backend", ["flat", "sharded"])
    @pytest.mark.parametrize("day_count", [1, 3], ids=["too_few", "too_many"])
    @pytest.mark.parametrize("count", [0, 400], ids=["empty", "populated"])
    def test_misaligned_query_days_raise(self, backend, day_count, count):
        index = build_index(backend, window_days=15.0)
        if count:
            populated(index, count=count)
        with pytest.raises(ValueError, match="query_days must align with query_matrix rows"):
            index.search_many(np.ones((2, 8)), [10.0] * day_count)


class TestBuildIndex:
    def test_build_index_backends(self):
        assert isinstance(build_index("flat"), FlatVectorIndex)
        assert isinstance(build_index("sharded", window_days=5.0), ShardedVectorIndex)
        with pytest.raises(ValueError):
            build_index("annoy")

    def test_sharded_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ShardedVectorIndex(window_days=0.0)
        with pytest.raises(ValueError):
            time_bucket(10.0, -1.0)

    def test_empty_and_duplicate_handling(self):
        sharded = ShardedVectorIndex()
        assert len(sharded) == 0
        assert sharded.search_many(np.ones((2, 4)), [1.0, 2.0]) == [[], []]
        sharded.add("a", np.ones(4), 1.0, "A")
        with pytest.raises(ValueError):
            sharded.add("a", np.ones(4), 2.0, "B")
        with pytest.raises(ValueError):
            sharded.add_many(
                ["b", "b"], np.ones((2, 4)), [1.0, 2.0], ["X", "Y"]
            )
        with pytest.raises(ValueError):
            sharded.add("c", np.ones(3), 1.0, "C")  # dimension mismatch
        assert len(sharded) == 1  # failed inserts leave the index untouched

    def test_guarantee_min_k_eligible(self):
        # 6 entries across far-apart windows, k larger than any single shard:
        # the result must still be filled to min(k, eligible).
        similarity = SimilarityConfig(alpha=0.5, k=5, diverse_categories=True)
        sharded = ShardedVectorIndex(similarity, window_days=5.0)
        for index in range(6):
            sharded.add(f"i{index}", np.eye(6)[index], index * 30.0, f"cat{index % 2}")
        neighbors = sharded.search(np.ones(6), query_day=150.0)
        assert len(neighbors) == 5


def twin_indexes(similarity, entries, window_days=10.0):
    """(flat, sharded) holding ``entries`` = (id, vector, day, category) rows."""
    flat = FlatVectorIndex(similarity)
    sharded = ShardedVectorIndex(similarity, window_days=window_days)
    for incident_id, vector, day, category in entries:
        for target in (flat, sharded):
            target.add(incident_id, np.array(vector, dtype=float), day, category)
    return flat, sharded


class TestCategoryExit:
    """The scan's primary exit: K covered categories strictly above a bound.

    ``select_complete_order`` stops at the K-th distinct category, so a
    query is finished once K categories each hold a candidate strictly
    above the next shard's ``exp(-alpha * dt_min)``.  These tests pin the
    three ways that exit could go wrong: a non-strict comparison (ties are
    broken by insertion sequence, which an unscanned shard may win), firing
    with fewer than K categories (fillers would be inexact), and counting a
    category that a filter removed.
    """

    @given(
        entries=st.lists(
            st.tuples(
                st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=2, max_size=2),
                st.integers(0, 60).map(float),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=50,
        ),
        query=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=2, max_size=2),
        query_day=st.integers(0, 70).map(float),
        alpha=st.sampled_from([0.1, 0.5, 1.0]),
        k=st.integers(2, 4),
        category_gap=st.sampled_from([-1, 0, 2]),
    )
    # The tie of test_score_equal_to_the_bound_does_not_prune, which random
    # draws almost never place: one entry mirrored across the query day.
    @example(
        entries=[([1.0, 0.0], 56.0, 2), ([1.0, 0.0], 44.0, 0), ([1.0, 0.0], 44.0, 1)],
        query=[1.0, 0.0],
        query_day=50.0,
        alpha=0.5,
        k=2,
        category_gap=2,
    )
    @settings(max_examples=120, deadline=None)
    def test_differential_below_at_and_above_k_categories(
        self, entries, query, query_day, alpha, k, category_gap
    ):
        """Sharded == flat (ids, scores, order) with k-1, k and k+2 categories."""
        similarity = SimilarityConfig(alpha=alpha, k=k)
        category_count = k + category_gap
        flat, sharded = twin_indexes(
            similarity,
            [
                (f"i{index}", vector, day, f"cat{code % category_count}")
                for index, (vector, day, code) in enumerate(entries)
            ],
            window_days=5.0,
        )
        assert_same_results(
            [flat.search(np.array(query), query_day)],
            [sharded.search(np.array(query), query_day)],
        )

    # At (1.63, 7) ``np.exp`` lands one ulp above ``math.exp`` (numpy 1.x,
    # x86-64): a bound taken from ``math.exp`` would sit *below* the tie.
    @pytest.mark.parametrize("alpha, gap", [(0.0, 6.0), (0.5, 6.0), (1.63, 7.0)])
    def test_score_equal_to_the_bound_does_not_prune(self, alpha, gap):
        """An unscanned entry tying the K-th category wins on sequence.

        Integer vectors equal to the query make every distance exactly 0,
        so "late" (inserted first, ``gap`` days after the query) and
        "a"/"b" (``gap`` days before it) all score exactly
        ``exp(-alpha * gap)`` — which is also the bound of late's shard
        once a/b's shard, first by key, is scanned.  Flat retrieval breaks
        the three-way tie by insertion sequence: late, then a.  Only a
        strict ``>`` scans late's shard — at ``alpha == 0`` too, where the
        bound is 1.0 and a perfect match ties it.
        """
        similarity = SimilarityConfig(alpha=alpha, k=2)
        query = [1.0, 0.0, 2.0]
        flat, sharded = twin_indexes(
            similarity,
            [
                ("late", query, 50.0 + gap, "C"),
                ("a", query, 50.0 - gap, "A"),
                ("b", query, 50.0 - gap, "B"),
                ("a-far", [9.0, 0.0, 2.0], 51.0 - gap, "A"),
            ],
        )
        reference = flat.search(np.array(query), 50.0)
        assert [n.incident_id for n in reference] == ["late", "a"]
        assert reference[0].similarity == reference[1].similarity
        assert_same_results([reference], [sharded.search(np.array(query), 50.0)])
        assert sharded.stats()["shards_pruned"] == 0.0

    def test_diversity_off_ignores_category_coverage(self):
        """K covered categories mean nothing when picks go by score alone."""
        similarity = SimilarityConfig(alpha=0.1, k=3, diverse_categories=False)
        query = [0.0, 0.0]
        flat, sharded = twin_indexes(
            similarity,
            [("near-a", [3.0, 0.0], 50.0, "A"), ("near-b", [3.0, 0.0], 50.0, "B"),
             ("near-c", [3.0, 0.0], 50.0, "C")]
            + [(f"exact{i}", query, 38.0, "A") for i in range(3)],
        )
        reference = flat.search(np.array(query), 50.0)
        assert [n.incident_id for n in reference] == ["exact0", "exact1", "exact2"]
        assert_same_results([reference], [sharded.search(np.array(query), 50.0)])

    #: Near shard (days 50-59): four entries each of A and B — a full 2K
    #: pool above the far shard's bound — plus one of C; far shard: the only
    #: D, outscored by every near entry but a distinct category.  K = 3.
    FILTER_CORPUS = (
        [(f"a{i}", [1.0 + i, 0.0], 53.0, "A") for i in range(4)]
        + [(f"b{i}", [1.0 + i, 0.0], 52.0, "B") for i in range(4)]
        + [("c", [1.0, 0.0], 55.0, "C"), ("d", [0.0, 0.0], 33.0, "D")]
    )

    def test_unfiltered_query_exits_after_the_near_shard(self):
        similarity = SimilarityConfig(alpha=0.3, k=3)
        flat, sharded = twin_indexes(similarity, self.FILTER_CORPUS)
        reference = flat.search(np.zeros(2), 53.0)
        assert [n.incident_id for n in reference] == ["a0", "b0", "c"]
        assert_same_results([reference], [sharded.search(np.zeros(2), 53.0)])
        stats = sharded.stats()
        assert (stats["shards_scanned"], stats["shards_pruned"]) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "filters",
        [
            dict(exclude_ids={"c"}),
            dict(history_before_day=54.0),
            dict(categories={"A", "B", "D"}),
        ],
        ids=["exclude_ids", "history_before_day", "categories"],
    )
    def test_filter_removing_the_kth_category_keeps_scanning(self, filters):
        """A, B and a *filtered* C are two categories, not K = 3."""
        similarity = SimilarityConfig(alpha=0.3, k=3)
        flat, sharded = twin_indexes(similarity, self.FILTER_CORPUS)
        reference = flat.search(np.zeros(2), 53.0, **filters)
        assert [n.incident_id for n in reference] == ["a0", "b0", "d"]
        assert_same_results(
            [reference], [sharded.search(np.zeros(2), 53.0, **filters)]
        )
        assert sharded.stats()["shards_scanned"] == 2.0

    def test_mid_year_query_scans_a_handful_of_weekly_shards(self):
        """52 weekly shards, >= K categories in each: <= 4 scanned per query.

        40 categories over 60 entries a week leave some category missing
        from almost every shard, which is what kept the per-shard coverage
        test scanning; the K-category exit does not care.
        """
        similarity = SimilarityConfig(alpha=0.3, k=5)
        flat, sharded = (
            populated(index, count=52 * 60, categories=40, duration=364.0)
            for index in (
                FlatVectorIndex(similarity),
                ShardedVectorIndex(similarity, window_days=7.0),
            )
        )
        assert sharded.stats()["shard_count"] == 52.0
        assert min(
            len(shard.cat_counts) for shard in sharded._shards.values()  # noqa: SLF001
        ) >= similarity.k
        rng = np.random.default_rng(7)
        queries = rng.standard_normal((12, 8))
        days = rng.uniform(150.0, 210.0, size=12)
        assert_same_results(
            flat.search_many(queries, days), sharded.search_many(queries, days)
        )
        stats = sharded.stats()
        assert stats["shards_scanned"] <= 4 * stats["queries"]
        assert (
            stats["shards_scanned"] + stats["shards_pruned"] + stats["shards_skipped"]
            == stats["shards_considered"]
        )
