"""The scan on duplicate-heavy shards, against the brute-force oracle.

Incidents recur (paper Figure 2), so a live index fills with copies of a
few vectors.  There a query's first block can keep, through its floor alone,
far more cells than the wave's merges can take, and ``_ScanState.fold``
then keeps only the cells that can still win (``_ScanState._winners``):
those at or above the row's ``2k``-th largest score and those equal to
their category's maximum, ties kept, since the merges break ties by
sequence.

Every case runs the same searches on two equal indexes: one as it is, one
whose fold keeps every cell at or above the floor (``_winners`` patched to
keep all).  Both must return the oracle's ids and similarity bits, and the
two must read equal ``stats()``.  Each case also checks that both of the
fold's branches ran: blocks that narrowed, and blocks that did not.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np
import pytest

from oracle import OracleIndex
from repro.vectordb import ShardedVectorIndex, SimilarityConfig
from repro.vectordb.sharded import _ScanState


def duplicate_history(rng, rows, distinct, categories, days):
    """``rows`` copies of ``distinct`` grid vectors, on integer days, in
    ``categories`` categories: scores tie across copies, and at ``alpha = 0``
    every copy of a vector ties.  Categories are skewed as recurrence skews
    them (category ``c`` weighs ``1 / (c + 1)^2``): a few hold most copies,
    the rest a handful, so a block's lowest category maximum sits far below
    its ``2k``-th score."""
    palette = rng.integers(-2, 3, size=(distinct, 4)).astype(float)
    picks = rng.integers(0, distinct, size=rows)
    weights = 1.0 / np.arange(1, categories + 1) ** 2
    codes = rng.choice(categories, size=rows, p=weights / weights.sum())
    return (
        palette,
        palette[picks],
        rng.integers(0, days, size=rows).astype(float),
        [f"c{code}" for code in codes],
    )


def search_batches(rng, palette, ids, days, batches, width):
    """Query batches of palette copies (and near copies), with exclusions,
    ``k`` overrides and filters drawn per batch."""
    for _ in range(batches):
        picks = rng.integers(0, palette.shape[0], size=width)
        queries = palette[picks] + rng.integers(-1, 2, size=(width, palette.shape[1])) * (
            rng.random((width, 1)) < 0.3
        )
        query_days = rng.integers(-2, days + 2, size=width).astype(float)
        kwargs: Dict[str, object] = {}
        if rng.random() < 0.5:
            kwargs["exclude_ids"] = [
                {ids[row] for row in rng.integers(0, len(ids), size=rng.integers(0, 40))}
                if rng.random() < 0.7 else None
                for _ in range(width)
            ]
        if rng.random() < 0.3:
            kwargs["k"] = int(rng.integers(1, 6))
        if rng.random() < 0.2:
            kwargs["history_before_day"] = float(rng.integers(1, days))
        if rng.random() < 0.2:
            kwargs["categories"] = {"c0", "c1", "c3"}
        yield queries, query_days, kwargs


def neighbour_bits(found):
    return [[(n.incident_id, float(n.similarity).hex()) for n in row] for row in found]


def run_case(monkeypatch, seed, rows, distinct, categories, k, diverse, alpha,
             window=8.0, days=40, batches=6, width=12):
    """One duplicate-heavy history searched on the oracle, the index as it is
    and the index whose fold keeps every cell at or above the floor.

    Returns how many blocks the fold narrowed, how many it left as the
    floor kept them, and how many cells the narrowing dropped."""
    rng = np.random.default_rng(seed)
    palette, vectors, created, labels = duplicate_history(rng, rows, distinct, categories, days)
    ids = [f"i{row}" for row in range(rows)]
    similarity = SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse)
    oracle = OracleIndex(similarity)
    narrowed = ShardedVectorIndex(similarity, window_days=window)
    kept_all = ShardedVectorIndex(similarity, window_days=window)
    for index in (oracle, narrowed, kept_all):
        index.add_many(ids, vectors, created, labels)

    winners = _ScanState._winners
    fold = _ScanState.fold
    counts = {"folds": 0, "narrowed": 0, "dropped": 0}

    def counting_fold(self, queries, data, scores):
        counts["folds"] += 1
        fold(self, queries, data, scores)

    def counting_winners(self, data, scores, cells):
        kept = winners(self, data, scores, cells)
        counts["narrowed"] += 1
        counts["dropped"] += cells.shape[0] - kept.shape[0]
        return kept

    for queries, query_days, kwargs in search_batches(rng, palette, ids, days, batches, width):
        expected = neighbour_bits(oracle.search_many(queries, query_days, **kwargs))
        with monkeypatch.context() as patch:
            patch.setattr(_ScanState, "fold", counting_fold)
            patch.setattr(_ScanState, "_winners", counting_winners)
            assert neighbour_bits(narrowed.search_many(queries, query_days, **kwargs)) == expected
        with monkeypatch.context() as patch:
            patch.setattr(_ScanState, "_winners", lambda self, data, scores, cells: cells)
            assert neighbour_bits(kept_all.search_many(queries, query_days, **kwargs)) == expected
        assert json.dumps(narrowed.stats(), sort_keys=True) == json.dumps(
            kept_all.stats(), sort_keys=True
        )
    return counts["narrowed"], counts["folds"] - counts["narrowed"], counts["dropped"]


#: (categories, k): fewer than 2k categories per shard, and more.
CATEGORY_MIXES = [(2, 2), (3, 3), (9, 2), (14, 1)]


class TestDuplicateHeavyShards:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("diverse", [True, False])
    @pytest.mark.parametrize("categories, k", CATEGORY_MIXES)
    def test_matches_the_oracle(self, monkeypatch, categories, k, diverse, alpha):
        narrowed, plain, dropped = 0, 0, 0
        # Three vectors copied 80 times each, and forty copied six times.
        for seed, distinct in ((0, 3), (1, 3), (2, 40)):
            counts = run_case(monkeypatch, seed, rows=240, distinct=distinct,
                              categories=categories, k=k, diverse=diverse, alpha=alpha)
            narrowed, plain, dropped = (a + b for a, b in zip((narrowed, plain, dropped), counts))
        assert narrowed and plain
        if diverse and alpha:
            assert dropped  # copies at distinct days: most of a block cannot win

    def test_ties_at_the_2kth_score_go_by_sequence(self, monkeypatch):
        """Twelve exact copies of the query on one day, k = 2, diversity off:
        the fold narrows, every copy ties at the 4th score and stays, and
        the two inserted first are the neighbours."""
        vector = [1.0, 0.0, 0.0, 0.0]
        index = ShardedVectorIndex(SimilarityConfig(alpha=0.1, k=2, diverse_categories=False))
        index.add_many([f"i{row}" for row in range(13)], [[0.0, 2.0, 0.0, 0.0]] + [vector] * 12,
                       [5.0] * 13, ["far"] + [f"c{row % 3}" for row in range(12)])
        taken = self.taken_cells(monkeypatch, index, [vector], [5.0])
        assert taken == [12]
        found = index.search_many(np.array([vector]), [5.0])
        assert [n.incident_id for n in found[0]] == ["i1", "i2"]

    def test_category_maxima_below_the_2kth_score_stay(self, monkeypatch):
        """Twelve copies of the query in "A" a day apart, then one "B" and
        one "C" copy further off, k = 2, diversity on: the floor is C's
        maximum, so all fourteen cells pass it; the fold keeps A's top four
        and the maxima of B and C, and B is the second neighbour."""
        vector = [1.0, 0.0, 0.0, 0.0]
        days = [float(day) for day in range(12)] + [20.0, 25.0]
        index = ShardedVectorIndex(SimilarityConfig(alpha=0.1, k=2), window_days=100.0)
        index.add_many([f"i{row}" for row in range(14)], [vector] * 14, days,
                       ["A"] * 12 + ["B", "C"])
        taken = self.taken_cells(monkeypatch, index, [vector], [0.0])
        assert taken == [6]
        found = index.search_many(np.array([vector]), [0.0])
        assert [n.incident_id for n in found[0]] == ["i0", "i12"]

    @staticmethod
    def taken_cells(monkeypatch, index, queries, days) -> List[int]:
        """Cells each ``_merge_pool`` call of one search took."""
        taken: List[int] = []
        merge_pool = _ScanState._merge_pool

        def recording(self, queries, owner, *rest):
            taken.append(owner.shape[0])
            merge_pool(self, queries, owner, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(_ScanState, "_merge_pool", recording)
            index.search_many(np.array(queries, dtype=float), days)
        return taken


@pytest.mark.slow
def test_matches_the_oracle_nightly(monkeypatch):
    """The differential at depth: 64 larger histories over every mix, from
    two copied vectors to forty, and both branches reached across them."""
    totals = np.zeros(3, dtype=np.int64)
    for seed in range(64):
        rng = np.random.default_rng(1000 + seed)
        categories, k = CATEGORY_MIXES[seed % len(CATEGORY_MIXES)]
        totals += run_case(
            monkeypatch, 1000 + seed, rows=int(rng.integers(600, 1500)),
            distinct=int(rng.choice([2, 3, 5, 40])), categories=categories, k=k,
            diverse=bool(seed % 2), alpha=float(rng.choice([0.0, 0.05, 0.3])),
            window=float(rng.choice([4.0, 8.0, 30.0])), days=80, batches=10, width=20,
        )
    assert totals.all()
