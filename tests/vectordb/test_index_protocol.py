"""Tests for the retrieval layer: protocol, oracle parity and persistence.

The contract under test: the sharded index returns *identical* neighbour
lists to the brute-force oracle (``oracle.py``: every row scored in one
block, ordered by score then insertion, selected by
``select_complete_order``) for every query — sharding and bound-based
pruning are invisible to callers.  Alongside the parity property tests sit
the persistence round-trip regressions (dtype, capacity re-growth, cached
squared-norm extension) backing the independent-shard persistence work, and
the loud-KeyError contract of ``update_category``.
"""

from __future__ import annotations

import copy
import os
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import OracleIndex
from repro.core.errors import IndexCorruptionError
from repro.vectordb import (
    ShardedVectorIndex,
    SimilarityConfig,
    VectorIndex,
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
    oracle = populated(OracleIndex(similarity), **kwargs)
    sharded = populated(ShardedVectorIndex(similarity, window_days=window_days), **kwargs)
    return oracle, sharded


def assert_same_results(oracle_results, sharded_results):
    """Same ids and the same similarity bits: every score is exact."""
    assert len(oracle_results) == len(sharded_results)
    for oracle_neighbors, sharded_neighbors in zip(oracle_results, sharded_results):
        assert [(n.incident_id, float(n.similarity).hex()) for n in oracle_neighbors] == [
            (n.incident_id, float(n.similarity).hex()) for n in sharded_neighbors
        ]


class TestOracleParity:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("diverse", [True, False])
    def test_plain_search_parity(self, alpha, diverse):
        similarity = SimilarityConfig(alpha=alpha, k=5, diverse_categories=diverse)
        oracle, sharded = both_indexes(similarity)
        rng = np.random.default_rng(31)
        queries = rng.standard_normal((10, 8))
        days = rng.uniform(0.0, 150.0, size=10)
        assert_same_results(
            oracle.search_many(queries, days), sharded.search_many(queries, days)
        )

    def test_filtered_search_parity(self):
        similarity = SimilarityConfig(alpha=0.3, k=4)
        oracle, sharded = both_indexes(similarity)
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
                oracle.search_many(queries, days, **kwargs),
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
        oracle = OracleIndex(similarity)
        sharded = ShardedVectorIndex(similarity, window_days=window)
        for index, (vector, day, category) in enumerate(entries):
            for target in (oracle, sharded):
                target.add(f"i{index}", np.array(vector), day, category)
        assert_same_results(
            [oracle.search(np.array(query), query_day)],
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
        """Tie-heavy corpora: sharded == oracle, exactly."""
        similarity = SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse)
        oracle = OracleIndex(similarity)
        sharded = ShardedVectorIndex(similarity, window_days=window)
        for index, (vector, day, category) in enumerate(entries):
            for target in (oracle, sharded):
                target.add(f"i{index}", np.array(vector), day, category)
        assert_same_results(
            [oracle.search(np.array(query), query_day)],
            [sharded.search(np.array(query), query_day)],
        )

    def test_empty_category_filter_means_no_filter(self):
        similarity = SimilarityConfig(alpha=0.3, k=4)
        oracle, sharded = both_indexes(similarity, count=60)
        rng = np.random.default_rng(17)
        queries = rng.standard_normal((3, 8))
        days = rng.uniform(0.0, 120.0, size=3)
        oracle_results = oracle.search_many(queries, days, categories=set())
        sharded_results = sharded.search_many(queries, days, categories=set())
        assert all(len(neighbors) == 4 for neighbors in oracle_results)
        assert_same_results(oracle_results, sharded_results)

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
        oracle, sharded = both_indexes(similarity)
        for incident_id in ("i3", "i77", "i201"):
            oracle.update_category(incident_id, "Corrected")
            sharded.update_category(incident_id, "Corrected")
        rng = np.random.default_rng(13)
        queries = rng.standard_normal((5, 8))
        days = rng.uniform(100.0, 140.0, size=5)
        assert_same_results(
            oracle.search_many(queries, days), sharded.search_many(queries, days)
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
        oracle, sharded = both_indexes(
            similarity, window_days=10.0, count=1200, duration=240.0
        )
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((16, 8))
        days = rng.uniform(0.0, 260.0, size=16)
        assert_same_results(
            oracle.search_many(queries, days, **filters),
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

    def test_stats_count_entries_queries_and_shards(self):
        sharded = populated(ShardedVectorIndex(SimilarityConfig(), window_days=15.0))
        rng = np.random.default_rng(1)
        sharded.search_many(rng.standard_normal((3, 8)), [10.0, 50.0, 90.0])
        stats = sharded.stats()
        assert stats["entries"] == 400.0
        assert stats["queries"] == 3.0
        assert 0.0 < stats["scanned_shard_ratio"] <= 1.0
        assert stats["shard_count"] > 1.0


#: One shard holding every entry of :func:`populated`, or many shards.
LAYOUTS = pytest.mark.parametrize(
    "window_days", [1000.0, 15.0], ids=["one_shard", "many_shards"]
)


class TestUpdateCategoryContract:
    """Satellite: unknown ids must fail loudly, naming the id, in any layout."""

    @LAYOUTS
    def test_unknown_id_raises_keyerror_with_id(self, window_days):
        index = populated(ShardedVectorIndex(window_days=window_days), count=20)
        with pytest.raises(KeyError, match="INC-MISSING-42"):
            index.update_category("INC-MISSING-42", "NewLabel")

    @LAYOUTS
    def test_known_id_updates_in_place(self, window_days):
        index = populated(ShardedVectorIndex(window_days=window_days), count=20)
        index.update_category("i7", "Corrected")
        assert index.get("i7").category == "Corrected"
        assert "Corrected" in index.categories()

    def test_relabelling_a_categorys_last_row_away_drops_the_category(self, tmp_path):
        """The shard that held it is skipped by its filter, compacted and reloaded too."""
        index = ShardedVectorIndex(SimilarityConfig(alpha=0.1, k=2), window_days=10.0)
        index.add_many(["a", "b1", "b2", "c"], np.eye(4), [1.0, 2.0, 3.0, 15.0], ["A", "B", "B", "C"])
        assert index.shard_sizes() == {0: 3, 1: 1}
        assert [n.incident_id for n in index.search(np.eye(4)[0], 2.0, categories={"A"})] == ["a"]
        index.update_category("a", "B")

        def assert_a_is_gone(index):
            assert index.categories() == ["B", "C"]
            skipped = index.stats()["shards_skipped"]
            assert index.search(np.eye(4)[0], 2.0, categories={"A"}) == []
            assert index.stats()["shards_skipped"] == skipped + len(index.shard_sizes())
            assert index.get("a").category == "B"

        assert_a_is_gone(index)
        index.compact(min_entries=5, max_entries=100)
        assert index.shard_sizes() == {2: 4}
        assert_a_is_gone(index)
        index.save(tmp_path)
        assert_a_is_gone(ShardedVectorIndex.load(tmp_path))


class TestPersistence:
    """Satellite: save/load round trips guard the shard persistence work."""

    def test_store_roundtrip_dtype_and_capacity_regrowth(self, tmp_path):
        """A reloaded shard's columns widen to float64 and grow on insert."""
        index = ShardedVectorIndex(window_days=1000.0)
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((70, 6)).astype(np.float32)  # narrower input
        index.add_many(
            incident_ids=[f"i{i}" for i in range(70)],
            vectors=vectors,
            created_days=[float(i) for i in range(70)],
            categories=[f"cat{i % 5}" for i in range(70)],
        )
        index.save(tmp_path)
        loaded = ShardedVectorIndex.load(tmp_path)
        (shard,) = loaded._shards.values()  # noqa: SLF001
        # dtype: a shard always widens to float64, including through disk.
        assert shard.data().block.dtype == np.float64
        assert shard.data().days.dtype == np.float64
        # capacity re-growth: keep inserting far beyond the loaded size.
        more = rng.standard_normal((200, 6))
        loaded.add_many(
            incident_ids=[f"j{i}" for i in range(200)],
            vectors=more,
            created_days=[float(i) for i in range(200)],
            categories=["late"] * 200,
        )
        assert len(loaded) == 270 and len(shard) == 270
        # Stored vectors are snapped to the scoring grid, 2^-20.
        np.testing.assert_array_equal(
            shard.data().block[:-2, 70:].T, np.rint(more * 2.0**20) / 2.0**20
        )

    def test_store_roundtrip_squared_norm_cache_extension(self, tmp_path):
        """A reloaded shard's squared norms extend, not go stale, on insert."""
        index = ShardedVectorIndex(window_days=1000.0)
        index.add_many(
            incident_ids=["a", "b"],
            vectors=np.array([[3.0, 4.0], [1.0, 0.0]]),
            created_days=[1.0, 2.0],
            categories=["A", "B"],
        )
        index.save(tmp_path)
        loaded = ShardedVectorIndex.load(tmp_path)
        (shard,) = loaded._shards.values()  # noqa: SLF001
        np.testing.assert_allclose(shard.data().block[-2], [25.0, 1.0])
        # The cache must extend (not go stale) when rows are added after a
        # load-then-score sequence.
        loaded.search(np.array([1.0, 1.0]), 2.0)
        loaded.add("c", np.array([2.0, 2.0]), 3.0, "C")
        np.testing.assert_allclose(shard.data().block[-2], [25.0, 1.0, 8.0])

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

    def test_a_single_npz_file_is_a_retired_format(self, tmp_path):
        """The single-matrix index's one-file ``.npz`` snapshot no longer loads.

        ``load_index`` opens ``<path>/manifest.json``; under a file that is a
        ``NotADirectoryError``, which the manifest's ``OSError`` arm reports
        as corruption, so a caller's recovery ladder rebuilds the index.
        """
        path = tmp_path / "flat.npz"
        np.savez_compressed(path, matrix=np.eye(2), created_days=np.zeros(2))
        with pytest.raises(IndexCorruptionError, match="corrupt manifest at .*flat.npz"):
            load_index(path, similarity=SimilarityConfig())
        with pytest.raises(IndexCorruptionError):
            load_index(str(path))

    def test_a_reloaded_index_matches_the_oracle(self, tmp_path):
        """Inserts and relabels after a reload land where the oracle puts them."""
        similarity = SimilarityConfig(alpha=0.3, k=5)
        oracle, sharded = both_indexes(similarity, count=300)
        sharded.save(tmp_path)
        reloaded = load_index(tmp_path, similarity=similarity)
        rng = np.random.default_rng(19)
        more, more_days = rng.standard_normal((40, 8)), rng.uniform(0.0, 130.0, 40)
        for target in (oracle, reloaded):
            target.add_many(
                [f"j{i}" for i in range(40)], more, more_days, [f"cat{i % 5}" for i in range(40)]
            )
            for incident_id in ("i5", "i150", "j3"):
                target.update_category(incident_id, "Relabelled")
        queries, days = rng.standard_normal((12, 8)), rng.uniform(0.0, 140.0, 12)
        assert_same_results(oracle.search_many(queries, days), reloaded.search_many(queries, days))

    def test_index_accepts_pathlib_paths(self, tmp_path):
        """Satellite: every save/load entry point takes ``pathlib.Path``."""
        rng = np.random.default_rng(15)
        similarity = SimilarityConfig(alpha=0.3, k=3)
        sharded = populated(ShardedVectorIndex(similarity, window_days=20.0), count=50)
        index_path = tmp_path / "path-index"
        sharded.save(index_path)
        reloaded = load_index(index_path, similarity=similarity)
        assert isinstance(reloaded, ShardedVectorIndex)
        assert isinstance(reloaded, VectorIndex)
        assert len(reloaded) == 50
        query = rng.standard_normal(8)
        assert_same_results(
            [sharded.search(query, 60.0)], [reloaded.search(query, 60.0)]
        )
        reloaded.close()


class TestQueryDaysAlignment:
    @pytest.mark.parametrize("day_count", [1, 3], ids=["too_few", "too_many"])
    @pytest.mark.parametrize("count", [0, 400], ids=["empty", "populated"])
    def test_misaligned_query_days_raise(self, day_count, count):
        index = ShardedVectorIndex(window_days=15.0)
        if count:
            populated(index, count=count)
        with pytest.raises(ValueError, match="query_days must align with query_matrix rows"):
            index.search_many(np.ones((2, 8)), [10.0] * day_count)

    @pytest.mark.parametrize(
        "queries, kwargs, message",
        [
            (np.ones(8), {}, "query_matrix must be a 2-D"),
            (np.ones((2, 8)), {"exclude_ids": [{"i1"}]}, "exclude_ids must align"),
            (np.ones((2, 5)), {}, "query dimension 5 does not match store dimension 8"),
        ],
        ids=["one_dimensional", "misaligned_exclude_ids", "wrong_dimension"],
    )
    def test_malformed_queries_raise(self, queries, kwargs, message):
        index = populated(ShardedVectorIndex(window_days=15.0), count=40)
        with pytest.raises(ValueError, match=message):
            index.search_many(queries, [10.0, 20.0], **kwargs)


class TestBuildIndex:
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
    """(oracle, sharded) holding ``entries`` = (id, vector, day, category) rows."""
    oracle = OracleIndex(similarity)
    sharded = ShardedVectorIndex(similarity, window_days=window_days)
    for incident_id, vector, day, category in entries:
        for target in (oracle, sharded):
            target.add(incident_id, np.array(vector, dtype=float), day, category)
    return oracle, sharded


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
        """Sharded == oracle (ids, scores, order) with k-1, k and k+2 categories."""
        similarity = SimilarityConfig(alpha=alpha, k=k)
        category_count = k + category_gap
        oracle, sharded = twin_indexes(
            similarity,
            [
                (f"i{index}", vector, day, f"cat{code % category_count}")
                for index, (vector, day, code) in enumerate(entries)
            ],
            window_days=5.0,
        )
        assert_same_results(
            [oracle.search(np.array(query), query_day)],
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
        once a/b's shard, first by key, is scanned.  The oracle breaks
        the three-way tie by insertion sequence: late, then a.  Only a
        strict ``>`` scans late's shard — at ``alpha == 0`` too, where the
        bound is 1.0 and a perfect match ties it.
        """
        similarity = SimilarityConfig(alpha=alpha, k=2)
        query = [1.0, 0.0, 2.0]
        oracle, sharded = twin_indexes(
            similarity,
            [
                ("late", query, 50.0 + gap, "C"),
                ("a", query, 50.0 - gap, "A"),
                ("b", query, 50.0 - gap, "B"),
                ("a-far", [9.0, 0.0, 2.0], 51.0 - gap, "A"),
            ],
        )
        reference = oracle.search(np.array(query), 50.0)
        assert [n.incident_id for n in reference] == ["late", "a"]
        assert reference[0].similarity == reference[1].similarity
        assert_same_results([reference], [sharded.search(np.array(query), 50.0)])
        assert sharded.stats()["shards_pruned"] == 0.0

    def test_diversity_off_ignores_category_coverage(self):
        """K covered categories mean nothing when picks go by score alone."""
        similarity = SimilarityConfig(alpha=0.1, k=3, diverse_categories=False)
        query = [0.0, 0.0]
        oracle, sharded = twin_indexes(
            similarity,
            [("near-a", [3.0, 0.0], 50.0, "A"), ("near-b", [3.0, 0.0], 50.0, "B"),
             ("near-c", [3.0, 0.0], 50.0, "C")]
            + [(f"exact{i}", query, 38.0, "A") for i in range(3)],
        )
        reference = oracle.search(np.array(query), 50.0)
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
        oracle, sharded = twin_indexes(similarity, self.FILTER_CORPUS)
        reference = oracle.search(np.zeros(2), 53.0)
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
        oracle, sharded = twin_indexes(similarity, self.FILTER_CORPUS)
        reference = oracle.search(np.zeros(2), 53.0, **filters)
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
        oracle, sharded = (
            populated(index, count=52 * 60, categories=40, duration=364.0)
            for index in (
                OracleIndex(similarity),
                ShardedVectorIndex(similarity, window_days=7.0),
            )
        )
        assert sharded.stats()["shard_count"] == 52.0
        assert min(
            len(np.unique(shard.codes)) for shard in sharded._shards.values()  # noqa: SLF001
        ) >= similarity.k
        rng = np.random.default_rng(7)
        queries = rng.standard_normal((12, 8))
        days = rng.uniform(150.0, 210.0, size=12)
        assert_same_results(
            oracle.search_many(queries, days), sharded.search_many(queries, days)
        )
        stats = sharded.stats()
        assert stats["shards_scanned"] <= 4 * stats["queries"]
        assert (
            stats["shards_scanned"] + stats["shards_pruned"] + stats["shards_skipped"]
            == stats["shards_considered"]
        )
