"""Shard compaction: layout rebalancing that never changes search results.

Covers the :meth:`ShardedVectorIndex.compact` contract — merge adjacent
cold shards below the size floor, split hot shards above the ceiling —
plus the auto-trigger policy, the persistence round trip of a compacted
layout, and the acceptance scenario: after a simulated two-year skewed
ingest, compaction bounds the max/median shard-size ratio and keeps the
scan economics close to a freshly built layout.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from oracle import OracleIndex
from repro.vectordb import (
    CompactionPolicy,
    ShardedVectorIndex,
    SimilarityConfig,
    load_index,
)

DIM = 16
TWO_YEARS = 730.0
WINDOW = 30.0


def skewed_corpus(total=12_000, seed=2024):
    """A two-year history whose arrival rate grows ~cubically (hot head)."""
    rng = np.random.default_rng(seed)
    days = np.sort(TWO_YEARS * rng.uniform(0.0, 1.0, size=total) ** 0.25)
    vectors = rng.standard_normal((total, DIM))
    vectors *= 6.0 / np.linalg.norm(vectors, axis=1, keepdims=True)
    ids = [f"INC-{i:05d}" for i in range(total)]
    categories = [f"Category{i % 40}" for i in range(total)]
    return ids, vectors, days, categories


def assert_same_results(reference, candidates):
    for ref_neighbors, cand_neighbors in zip(reference, candidates):
        assert [n.incident_id for n in ref_neighbors] == [
            n.incident_id for n in cand_neighbors
        ]
        assert [n.similarity for n in cand_neighbors] == pytest.approx(
            [n.similarity for n in ref_neighbors]
        )


def size_ratio(index) -> float:
    sizes = sorted(index.shard_sizes().values())
    return sizes[-1] / sizes[len(sizes) // 2]


class TestCompactionPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(min_entries=-1)
        with pytest.raises(ValueError):
            CompactionPolicy(max_entries=0)
        with pytest.raises(ValueError):
            CompactionPolicy(min_entries=100, max_entries=150)
        with pytest.raises(ValueError):
            CompactionPolicy(check_every=0)
        policy = CompactionPolicy(min_entries=0, max_entries=10)
        assert not policy.auto

    def test_explicit_compact_overrides_keep_policy_invariant(self):
        """compact(min, max) must reject floor/ceiling pairs the policy would.

        A ceiling below twice the floor lets the split pass produce
        sub-floor pieces the merge pass can never recombine.
        """
        index = ShardedVectorIndex(SimilarityConfig(), window_days=WINDOW)
        ids, vectors, days, categories = skewed_corpus(total=300)
        index.add_many(ids, vectors, days, categories)
        with pytest.raises(ValueError):
            index.compact(min_entries=100, max_entries=150)
        with pytest.raises(ValueError):
            index.compact(min_entries=-1)
        with pytest.raises(ValueError):
            index.compact(max_entries=0)

    def test_compact_report_shape(self):
        index = ShardedVectorIndex(SimilarityConfig(), window_days=WINDOW)
        ids, vectors, days, categories = skewed_corpus(total=600)
        index.add_many(ids, vectors, days, categories)
        report = index.compact(min_entries=50, max_entries=200)
        for key in (
            "shards_before",
            "shards_after",
            "shards_split",
            "shards_merged",
            "max_shard_size",
            "median_shard_size",
        ):
            assert key in report
        assert report["shards_after"] == index.stats()["shard_count"]


class TestSkewedIngestAcceptance:
    def test_two_year_skewed_ingest_stays_balanced(self):
        """Acceptance: max/median <= 4 and scan economics near fresh layout."""
        ids, vectors, days, categories = skewed_corpus()
        similarity = SimilarityConfig(alpha=0.3, k=5, diverse_categories=True)
        policy = CompactionPolicy(
            min_entries=150, max_entries=600, auto=True, check_every=1_000
        )

        # The aged index: chronological micro-batches, auto compaction.
        aged = ShardedVectorIndex(
            similarity, window_days=WINDOW, compaction=policy
        )
        batch = 500
        for start in range(0, len(ids), batch):
            stop = start + batch
            aged.add_many(
                ids[start:stop], vectors[start:stop], days[start:stop],
                categories[start:stop],
            )
        aged.compact()

        # Skew is real: the same ingest without compaction is badly skewed.
        plain = ShardedVectorIndex(similarity, window_days=WINDOW)
        plain.add_many(ids, vectors, days, categories)
        assert size_ratio(plain) > 4.0
        assert size_ratio(aged) <= 4.0

        # Fresh-layout baseline: one-shot build, one compaction pass.
        fresh = ShardedVectorIndex(
            similarity, window_days=WINDOW, compaction=policy
        )
        fresh.add_many(ids, vectors, days, categories)
        fresh.compact()

        oracle = OracleIndex(similarity)
        oracle.add_many(ids, vectors, days, categories)

        rng = np.random.default_rng(7)
        queries = rng.standard_normal((24, DIM))
        queries *= 6.0 / np.linalg.norm(queries, axis=1, keepdims=True)
        query_days = rng.uniform(700.0, TWO_YEARS, size=24)

        reference = oracle.search_many(queries, query_days)
        assert_same_results(reference, aged.search_many(queries, query_days))
        assert_same_results(reference, fresh.search_many(queries, query_days))

        aged_stats = aged.stats()
        fresh_stats = fresh.stats()
        assert aged_stats["scanned_shard_ratio"] <= (
            1.2 * fresh_stats["scanned_shard_ratio"]
        ), (
            f"aged layout scans {aged_stats['scanned_shard_ratio']:.1%} of shards, "
            f"fresh baseline {fresh_stats['scanned_shard_ratio']:.1%}"
        )
        assert aged_stats["scanned_entry_ratio"] <= (
            1.2 * fresh_stats["scanned_entry_ratio"]
        )
        assert aged_stats["compactions"] >= 1.0
        assert aged_stats["shards_merged"] + aged_stats["shards_split"] > 0


class TestCompactionBehaviour:
    def test_merge_only_touches_adjacent_cold_shards(self):
        """A hot shard between two cold runs is never absorbed into either."""
        similarity = SimilarityConfig(alpha=0.3, k=3)
        index = ShardedVectorIndex(similarity, window_days=10.0)
        rng = np.random.default_rng(5)
        row = 0
        # Layout: two tiny shards, one big shard, two tiny shards.
        for window, count in ((0, 5), (1, 5), (2, 300), (3, 4), (4, 6)):
            index.add_many(
                [f"w{window}-{i}" for i in range(count)],
                rng.standard_normal((count, 4)),
                rng.uniform(window * 10.0, window * 10.0 + 9.9, size=count),
                [f"c{(row + i) % 5}" for i in range(count)],
            )
            row += count
        report = index.compact(min_entries=20, max_entries=400)
        assert report["shards_merged"] == 4  # the two cold runs, not the hot one
        sizes = index.shard_sizes()
        assert sorted(sizes.values()) == [10, 10, 300]

    def test_split_respects_day_boundaries_and_single_day_shards(self):
        similarity = SimilarityConfig(alpha=0.3, k=3)
        index = ShardedVectorIndex(similarity, window_days=10.0)
        rng = np.random.default_rng(6)
        # 200 entries spread inside one window: splittable.
        index.add_many(
            [f"a{i}" for i in range(200)],
            rng.standard_normal((200, 4)),
            rng.uniform(0.0, 9.9, size=200),
            ["A"] * 200,
        )
        # 200 entries all on the same day: cannot be split (routing would
        # break), so compaction must leave them alone.
        index.add_many(
            [f"b{i}" for i in range(200)],
            rng.standard_normal((200, 4)),
            [15.0] * 200,
            ["B"] * 200,
        )
        report = index.compact(min_entries=0, max_entries=80)
        assert report["shards_split"] == 1
        sizes = index.shard_sizes().values()
        assert max(sizes) == 200  # the single-day shard survived intact
        assert sum(sizes) == 400
        assert sum(1 for size in sizes if size <= 80) >= 3

    def test_inserts_after_compaction_route_into_compacted_ranges(self):
        """New entries land in merged/split shards, and parity holds."""
        similarity = SimilarityConfig(alpha=0.3, k=4)
        oracle = OracleIndex(similarity)
        sharded = ShardedVectorIndex(similarity, window_days=10.0)
        rng = np.random.default_rng(11)
        count = 500
        ids = [f"i{i}" for i in range(count)]
        vectors = rng.standard_normal((count, 6))
        days = rng.uniform(0.0, 200.0, size=count)
        categories = [f"c{i % 9}" for i in range(count)]
        oracle.add_many(ids, vectors, days, categories)
        sharded.add_many(ids, vectors, days, categories)
        sharded.compact(min_entries=40, max_entries=120)
        shard_count = len(sharded.shard_sizes())
        more = rng.standard_normal((100, 6))
        more_days = rng.uniform(0.0, 200.0, size=100)
        more_ids = [f"j{i}" for i in range(100)]
        more_categories = [f"c{i % 9}" for i in range(100)]
        oracle.add_many(more_ids, more, more_days, more_categories)
        sharded.add_many(more_ids, more, more_days, more_categories)
        # Every in-range insert reused a compacted shard; none resurrected
        # its original time bucket.
        assert len(sharded.shard_sizes()) == shard_count
        queries = rng.standard_normal((8, 6))
        query_days = rng.uniform(0.0, 220.0, size=8)
        assert_same_results(
            oracle.search_many(queries, query_days),
            sharded.search_many(queries, query_days),
        )

    def test_incremental_budget_defers_and_eventually_drains(self):
        """A rewrite budget caps per-pass work; repeated passes converge.

        With ``max_rewrite_shards`` set, one ``compact`` call rewrites at
        most that many source shards, reports the backlog via
        ``shards_deferred``, and never changes search results mid-way.
        """
        similarity = SimilarityConfig(alpha=0.3, k=4)
        index = ShardedVectorIndex(similarity, window_days=WINDOW)
        ids, vectors, days, categories = skewed_corpus(total=3_000)
        index.add_many(ids, vectors, days, categories)

        reference = ShardedVectorIndex(similarity, window_days=WINDOW)
        reference.add_many(ids, vectors, days, categories)
        reference.compact(min_entries=60, max_entries=240)

        rng = np.random.default_rng(17)
        queries = rng.standard_normal((6, DIM))
        query_days = rng.uniform(0.0, 760.0, size=6)
        expected = reference.search_many(queries, query_days)

        report = index.compact(
            min_entries=60, max_entries=240, max_rewrite_shards=2
        )
        assert report["shards_deferred"] > 0
        # Mid-drain the layout differs but results never do.
        assert_same_results(expected, index.search_many(queries, query_days))

        rounds = 1
        while report["shards_deferred"] > 0:
            report = index.compact(
                min_entries=60, max_entries=240, max_rewrite_shards=2
            )
            rounds += 1
            assert rounds < 100, "budgeted compaction failed to converge"
        assert rounds > 1
        # Drained: an unbudgeted pass finds nothing left to rewrite, and the
        # layout honours the same bounds the one-shot reference achieved.
        final = index.compact(min_entries=60, max_entries=240)
        assert final["shards_split"] + final["shards_merged"] == 0
        assert max(index.shard_sizes().values()) <= 240
        assert sum(index.shard_sizes().values()) == len(ids)
        assert_same_results(expected, index.search_many(queries, query_days))

    def test_budget_policy_validation_and_auto_reprime(self):
        """Policy validates the budget; auto passes re-arm when deferred."""
        with pytest.raises(ValueError):
            CompactionPolicy(max_rewrite_shards=0)
        similarity = SimilarityConfig(alpha=0.3, k=3)
        policy = CompactionPolicy(
            min_entries=10,
            max_entries=40,
            auto=True,
            check_every=100,
            max_rewrite_shards=2,
        )
        index = ShardedVectorIndex(similarity, window_days=5.0, compaction=policy)
        rng = np.random.default_rng(19)
        # All 600 entries land in just six 5-day windows, so every shard
        # blows past the 40-entry ceiling and the 2-shard budget cannot
        # clear the backlog in one pass — deferral must re-arm the trigger.
        for start in range(0, 600, 50):
            index.add_many(
                [f"i{start + i}" for i in range(50)],
                rng.standard_normal((50, 4)),
                rng.uniform(0.0, 30.0, size=50),
                ["A", "B"] * 25,
            )
        # The tiny budget forces many auto passes instead of one big one.
        assert index.stats()["compactions"] >= 2.0
        sizes = index.shard_sizes().values()
        assert sum(sizes) == 600

    def test_auto_trigger_policy(self):
        similarity = SimilarityConfig(alpha=0.3, k=3)
        policy = CompactionPolicy(
            min_entries=30, max_entries=80, auto=True, check_every=100
        )
        index = ShardedVectorIndex(
            similarity, window_days=5.0, compaction=policy
        )
        rng = np.random.default_rng(13)
        for start in range(0, 400, 50):
            index.add_many(
                [f"i{start + i}" for i in range(50)],
                rng.standard_normal((50, 4)),
                rng.uniform(0.0, 100.0, size=50),
                ["A", "B"] * 25,
            )
        assert index.stats()["compactions"] >= 1.0
        # update_category still works after entries moved between shards.
        index.update_category("i7", "Rewritten")
        assert index.get("i7").category == "Rewritten"


class TestCompactionPersistence:
    def test_compact_save_load_roundtrip(self, tmp_path):
        """Satellite: compact -> save -> load -> identical search results."""
        similarity = SimilarityConfig(alpha=0.3, k=5)
        index = ShardedVectorIndex(similarity, window_days=WINDOW)
        ids, vectors, days, categories = skewed_corpus(total=2_000)
        index.add_many(ids, vectors, days, categories)
        index.update_category(ids[11], "Rewritten")
        index.compact(min_entries=80, max_entries=400)
        target = str(tmp_path / "compacted-index")
        index.save(target)

        with open(os.path.join(target, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["format"] == "sharded-vector-index"
        assert manifest["version"] == 4
        # v4 names one segment per compacted shard plus one codes file,
        # flat in the directory; nothing else is written.
        named = [meta["segment"] for meta in manifest["shards"]]
        assert sorted(os.listdir(target)) == sorted(
            ["manifest.json", manifest["codes"], *named]
        )
        total_rows = 0
        for meta in manifest["shards"]:
            assert meta["start_day"] < meta["end_day"]
            assert meta["rows"] == index.shard_sizes()[meta["key"]]
            total_rows += meta["rows"]
        assert total_rows == len(index)

        loaded = ShardedVectorIndex.load(target, similarity=similarity)
        assert len(loaded) == len(index)
        assert loaded.get(ids[11]).category == "Rewritten"
        assert loaded.shard_sizes() == index.shard_sizes()
        rng = np.random.default_rng(21)
        queries = rng.standard_normal((6, DIM))
        query_days = rng.uniform(0.0, 760.0, size=6)
        assert_same_results(
            index.search_many(queries, query_days),
            loaded.search_many(queries, query_days),
        )
        # Post-load inserts route into the restored compacted ranges.
        loaded.add("fresh", rng.standard_normal(DIM), 100.0, "Fresh")
        assert "fresh" in loaded

    def test_load_index_forwards_runtime_knobs(self, tmp_path):
        """The dispatching loader restores the compaction policy.

        Runtime knobs are not persisted, so a deployment that reloads via
        ``load_index`` must be able to hand them back — otherwise a
        restarted index silently drops auto-compaction.
        """
        similarity = SimilarityConfig(alpha=0.3, k=4)
        index = ShardedVectorIndex(similarity, window_days=20.0)
        rng = np.random.default_rng(9)
        index.add_many(
            [f"i{i}" for i in range(40)],
            rng.standard_normal((40, 5)),
            rng.uniform(0.0, 100.0, size=40),
            [f"c{i % 4}" for i in range(40)],
        )
        target = str(tmp_path / "knobs-index")
        index.save(target)
        policy = CompactionPolicy(min_entries=4, max_entries=32, auto=True)
        loaded = load_index(target, similarity=similarity, compaction=policy)
        assert isinstance(loaded, ShardedVectorIndex)
        assert loaded.compaction is policy
        assert loaded.similarity is similarity
