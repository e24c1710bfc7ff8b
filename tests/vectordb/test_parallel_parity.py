"""Parallel shard scoring: exact parity with the sequential and flat paths.

The contract of the worker-pool execution mode: ``max_workers`` changes
*scheduling only*.  Neighbour lists — including tie breaks on tie-heavy
corpora — and every scan-statistics counter must be bit-identical between
flat, sequential-sharded and parallel-sharded execution, because prune
decisions are taken against the pool state as of wave start and every
state mutation is folded on the calling thread in deterministic order.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectordb import FlatVectorIndex, ShardedVectorIndex, SimilarityConfig


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


def triple(similarity, window_days=15.0, workers=3, **kwargs):
    """(flat, sequential sharded, parallel sharded) over identical entries."""
    flat = populated(FlatVectorIndex(similarity), **kwargs)
    sequential = populated(
        ShardedVectorIndex(similarity, window_days=window_days, max_workers=1),
        **kwargs,
    )
    parallel = populated(
        ShardedVectorIndex(similarity, window_days=window_days, max_workers=workers),
        **kwargs,
    )
    return flat, sequential, parallel


def assert_same_results(reference, candidates):
    assert len(reference) == len(candidates)
    for ref_neighbors, cand_neighbors in zip(reference, candidates):
        assert [n.incident_id for n in ref_neighbors] == [
            n.incident_id for n in cand_neighbors
        ]
        assert [n.similarity for n in cand_neighbors] == pytest.approx(
            [n.similarity for n in ref_neighbors]
        )


def assert_bitwise_results(reference, candidates):
    """Sharded modes at fixed settings must agree to the last bit."""
    assert len(reference) == len(candidates)
    for ref_neighbors, cand_neighbors in zip(reference, candidates):
        assert [(n.incident_id, n.similarity) for n in ref_neighbors] == [
            (n.incident_id, n.similarity) for n in cand_neighbors
        ]


class TestParallelParity:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("diverse", [True, False])
    def test_plain_search_parity(self, alpha, diverse):
        similarity = SimilarityConfig(alpha=alpha, k=5, diverse_categories=diverse)
        flat, sequential, parallel = triple(similarity)
        rng = np.random.default_rng(31)
        queries = rng.standard_normal((10, 8))
        days = rng.uniform(0.0, 150.0, size=10)
        reference = flat.search_many(queries, days)
        inline = sequential.search_many(queries, days)
        assert_same_results(reference, inline)
        assert_bitwise_results(inline, parallel.search_many(queries, days))

    def test_filtered_search_parity(self):
        similarity = SimilarityConfig(alpha=0.3, k=4)
        flat, sequential, parallel = triple(similarity)
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
            reference = flat.search_many(queries, days, **kwargs)
            inline = sequential.search_many(queries, days, **kwargs)
            assert_same_results(reference, inline)
            assert_bitwise_results(
                inline, parallel.search_many(queries, days, **kwargs)
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
        """Tie-heavy corpora: parallel == sequential == flat, exactly."""
        similarity = SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse)
        flat = FlatVectorIndex(similarity)
        sequential = ShardedVectorIndex(similarity, window_days=window, max_workers=1)
        parallel = ShardedVectorIndex(similarity, window_days=window, max_workers=3)
        for index, (vector, day, category) in enumerate(entries):
            for target in (flat, sequential, parallel):
                target.add(f"i{index}", np.array(vector), day, category)
        reference = [flat.search(np.array(query), query_day)]
        assert_same_results(
            reference, [sequential.search(np.array(query), query_day)]
        )
        assert_same_results(reference, [parallel.search(np.array(query), query_day)])


class TestParallelStats:
    def test_counters_identical_to_sequential(self):
        """Satellite: scan statistics are race-free and mode-independent.

        Counters accumulate via per-shard payloads reduced on the calling
        thread at wave end, so the parallel scan must report exactly the
        sequential numbers — scanned, pruned, skipped and entry counts.
        """
        similarity = SimilarityConfig(alpha=0.3, k=5)
        _, sequential, parallel = triple(
            similarity, window_days=10.0, workers=4, count=1200, duration=240.0
        )
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((16, 8))
        days = rng.uniform(0.0, 260.0, size=16)
        # Mix plain, duplicate and excluded queries to cover every path.
        stacked = np.vstack([queries, queries[:4]])
        stacked_days = np.concatenate([days, days[:4]])
        excludes = [
            {f"i{row}"} if row % 3 == 0 else None for row in range(stacked.shape[0])
        ]
        sequential.search_many(stacked, stacked_days, exclude_ids=excludes)
        parallel.search_many(stacked, stacked_days, exclude_ids=excludes)
        seq_stats = sequential.stats()
        par_stats = parallel.stats()
        for name in (
            "queries",
            "shards_considered",
            "shards_scanned",
            "shards_pruned",
            "shards_skipped",
            "entries_scanned",
            "scanned_shard_ratio",
            "scanned_entry_ratio",
        ):
            assert seq_stats[name] == par_stats[name], name
        assert par_stats["shards_pruned"] > 0
        assert par_stats["max_workers"] == 4.0

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
        """scanned + pruned + skipped == considered, identically in both modes.

        A query the category exit finishes books all its remaining shards
        as pruned in one step; nothing may be lost or counted twice.
        """
        similarity = SimilarityConfig(alpha=0.3, k=3)
        _, sequential, parallel = triple(
            similarity, window_days=10.0, workers=4, count=1200, duration=240.0
        )
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((16, 8))
        days = rng.uniform(0.0, 260.0, size=16)
        assert_bitwise_results(
            sequential.search_many(queries, days, **filters),
            parallel.search_many(queries, days, **filters),
        )
        seq_stats = sequential.stats()
        par_stats = parallel.stats()
        assert (seq_stats.pop("max_workers"), par_stats.pop("max_workers")) == (1.0, 4.0)
        assert seq_stats == par_stats
        assert seq_stats["shards_considered"] == 16 * seq_stats["shard_count"]
        assert (
            seq_stats["shards_scanned"]
            + seq_stats["shards_pruned"]
            + seq_stats["shards_skipped"]
            == seq_stats["shards_considered"]
        )
        assert seq_stats["shards_pruned"] > 0

    def test_stats_report_effective_workers(self):
        index = ShardedVectorIndex(SimilarityConfig(), max_workers=2)
        assert index.stats()["max_workers"] == 2.0
        auto = ShardedVectorIndex(SimilarityConfig())
        assert auto.stats()["max_workers"] >= 1.0

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError):
            ShardedVectorIndex(SimilarityConfig(), max_workers=0)

    def test_pool_is_reused_and_close_respawns(self):
        """The scoring pool is cached across calls; close() is idempotent."""
        similarity = SimilarityConfig(alpha=0.3, k=4)
        _, _, parallel = triple(similarity, workers=3, count=300)
        rng = np.random.default_rng(17)
        queries = rng.standard_normal((6, 8))
        days = rng.uniform(0.0, 130.0, size=6)
        first = parallel.search_many(queries, days)
        pool = parallel._executor  # noqa: SLF001
        assert pool is not None
        parallel.search_many(queries, days)
        assert parallel._executor is pool  # noqa: SLF001 - reused, not respawned
        parallel.close()
        parallel.close()
        assert parallel._executor is None  # noqa: SLF001
        assert_same_results(first, parallel.search_many(queries, days))
        assert parallel._executor is not None  # noqa: SLF001 - respawned on use

    def test_parallel_index_survives_deepcopy(self):
        """No pool/lock state may stick to the index (benchmarks deepcopy it)."""
        similarity = SimilarityConfig(alpha=0.3, k=4)
        _, _, parallel = triple(similarity, workers=3, count=120)
        rng = np.random.default_rng(8)
        queries = rng.standard_normal((4, 8))
        days = rng.uniform(0.0, 130.0, size=4)
        before = parallel.search_many(queries, days)
        clone = copy.deepcopy(parallel)
        assert_same_results(before, clone.search_many(queries, days))
