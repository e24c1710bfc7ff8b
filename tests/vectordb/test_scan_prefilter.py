"""The scan's distance-bound prefilter, against the oracle and the dense fold.

From a query's second shard on, its floor (pool minimum, with diversity on
lowered to ``kth_best``) is usually positive, and its bound for the shard
(``exp(-alpha dt_min)``) caps every row's decay there.  A cell can then
score the floor only if ``squared distance <= ((bound / floor - 1)(1 +
margin))^2``, so ``_ScanState.fold`` scores only those cells
(``scoring.scores_at_least``) once every row of a block has a normal
positive floor, and the whole block otherwise.

The references share nothing with that skip: the oracle scores every row
of the history as one block, and the dense fold
(``test_scan_fold.dense_fold``) folds every block scored whole.  Ids,
similarity bits, scan counters, pools, ``kth_best`` and the category bests
it reads must all agree.  The pinned cases sit where a wrong limit would
show: ties exactly at the floor (``alpha = 0``, so the bound is 1), the
squared distance 2 whose limit rounds below 2 without the margin, two rows
of one block with different bounds, removed cells, and waves that mix rows
and blocks with and without a floor.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle import OracleIndex
from repro.vectordb import SimilarityConfig
from repro.vectordb.sharded import _Block
from test_scan_fold import assert_matches_dense_fold, build, traced_search


def neighbour_bits(found):
    return [[(n.incident_id, float(n.similarity).hex()) for n in row] for row in found]


def oracle_for(entries, alpha, k, diverse):
    oracle = OracleIndex(SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse))
    for row, (vector, day, category) in enumerate(entries):
        oracle.add(f"i{row}", np.asarray(vector, dtype=float), float(day), category)
    return oracle


class Prefiltered:
    """Records every block the fold scored through the prefilter."""

    def __init__(self, monkeypatch):
        self.floors: List[np.ndarray] = []
        self.bounds: List[np.ndarray] = []
        real = _Block.scores_at_least

        def recording(block, floors):
            self.floors.append(floors.copy())
            self.bounds.append(block.bounds.copy())
            return real(block, floors)

        monkeypatch.setattr(_Block, "scores_at_least", recording)


def check(monkeypatch, entries, queries, days, config=None, **kwargs):
    """One search checked against the oracle and the dense fold; returns the
    results and what the prefilter saw.  ``config`` is :func:`build`'s (no
    decay, k = 1, diversity on and 5-day shards unless it says otherwise),
    ``kwargs`` the search's."""
    config = dict(dict(alpha=0.0, k=1, diverse=True, window=5.0), **(config or {}))
    alpha, k, diverse = config["alpha"], config["k"], config["diverse"]
    index = build(entries, **config)
    queries = np.asarray(queries, dtype=float)
    expected = oracle_for(entries, alpha, k, diverse).search_many(queries, days, **kwargs)
    with monkeypatch.context() as patch:
        seen = Prefiltered(patch)
        found = index.search_many(queries, days, **kwargs)
    assert neighbour_bits(found) == neighbour_bits(expected)
    assert_matches_dense_fold(monkeypatch, index, queries, days, **kwargs)
    return found, seen


def ids(found):
    return [[n.incident_id for n in row] for row in found]


# -------------------------------------------------------------- properties
VECTOR = st.lists(st.integers(-2, 2).map(float), min_size=3, max_size=3)


@st.composite
def prefilter_cases(draw):
    """Histories many shards deep on a small integer grid (distances tie
    often, squared distances are whole numbers), query batches with
    duplicates, and every filter."""
    entries = draw(st.lists(
        st.tuples(VECTOR, st.integers(0, 60).map(float), st.sampled_from("ABCDEF")),
        min_size=1, max_size=80,
    ))
    queries = draw(st.lists(st.tuples(VECTOR, st.integers(-5, 65).map(float)),
                            min_size=1, max_size=8))
    queries += draw(st.lists(st.sampled_from(queries), max_size=2))
    filters: Dict[str, object] = {}
    if draw(st.booleans()):
        filters["history_before_day"] = float(draw(st.integers(0, 62)))
    if draw(st.booleans()):
        filters["categories"] = set(draw(st.lists(st.sampled_from("ABCDEFZ"), max_size=4)))
    if draw(st.booleans()):
        filters["exclude_ids"] = [
            {f"i{row}" for row in draw(st.lists(st.integers(0, len(entries)), max_size=10))}
            for _ in queries
        ]
    if draw(st.booleans()):
        filters["k"] = draw(st.integers(1, 6))
    config = dict(
        alpha=draw(st.sampled_from([0.0, 0.05, 0.2, 1.0])),
        k=draw(st.integers(1, 5)),
        diverse=draw(st.booleans()),
        window=draw(st.sampled_from([2.0, 5.0, 15.0])),
    )
    return entries, queries, filters, config


def prefilter_case(monkeypatch, case):
    entries, queries, filters, config = case
    check(monkeypatch, entries, [vector for vector, _ in queries],
          [day for _, day in queries], config, **filters)


class TestMatchesTheReferences:
    @given(case=prefilter_cases())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_histories(self, monkeypatch, case):
        prefilter_case(monkeypatch, case)

    @pytest.mark.slow
    @given(case=prefilter_cases())
    @settings(max_examples=1500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_histories_nightly(self, monkeypatch, case):
        prefilter_case(monkeypatch, case)

    @pytest.mark.parametrize("diverse", [True, False])
    def test_a_deep_history_prefilters_most_blocks(self, monkeypatch, diverse):
        """A year of integer-grid entries in week-wide shards: every query's
        later blocks go through the prefilter, with and without a ``k``
        override and the filters."""
        rng = np.random.default_rng(21)
        entries = [(rng.integers(-3, 4, 4).astype(float), float(day), f"c{code}")
                   for day, code in zip(rng.integers(0, 365, 1500), rng.integers(0, 12, 1500))]
        queries = rng.integers(-3, 4, (10, 4)).astype(float)
        days = [float(day) for day in rng.integers(0, 365, 10)]
        excludes = [{f"i{row}" for row in rng.integers(0, 1500, 60)} for _ in range(10)]
        for filters in ({}, dict(k=2), dict(history_before_day=200.0, k=7),
                        dict(categories={"c1", "c5", "c7", "c9", "c11"}, exclude_ids=excludes)):
            _, seen = check(monkeypatch, entries, queries, days,
                            dict(alpha=0.05, k=4, diverse=diverse, window=7.0), **filters)
            assert len(seen.floors) >= 10


# -------------------------------------------------------------- pinned cases
class TestAtTheLimit:
    """Cells whose score is exactly the floor: a tie the lower sequence wins."""

    @pytest.mark.parametrize("diverse", [True, False])
    def test_an_exact_copy_at_a_floor_of_one(self, monkeypatch, diverse):
        """No decay, so the bound is 1, and the pool (k = 1) holds two exact
        copies: the floor is 1 and the limit 0.  The copy in the second
        shard was inserted first, scores 1 at squared distance 0, and wins."""
        entries = [([1.0, 0.0], 36.0, "A"), ([1.0, 0.0], 24.0, "A"), ([1.0, 0.0], 24.0, "A")]
        found, seen = check(monkeypatch, entries, [[1.0, 0.0]], [30.0], dict(diverse=diverse))
        assert [floors.tolist() for floors in seen.floors] == [[1.0]]
        assert [bounds.tolist() for bounds in seen.bounds] == [[1.0]]
        assert ids(found) == [["i0"]]

    @pytest.mark.parametrize("diverse", [True, False])
    def test_squared_distance_two_needs_the_margin(self, monkeypatch, diverse):
        """At squared distance 2 the score is ``1 / (1 + sqrt 2)`` and
        ``(1 / score - 1)^2`` rounds to just below 2: only the margin keeps
        the tie at the floor, inserted first, in the pool."""
        score = 1.0 / (1.0 + math.sqrt(2.0))
        assert (1.0 / score - 1.0) ** 2 < 2.0
        entries = [([1.0, 1.0], 36.0, "A"), ([1.0, -1.0], 24.0, "A"), ([-1.0, 1.0], 24.0, "A")]
        found, seen = check(monkeypatch, entries, [[0.0, 0.0]], [30.0], dict(diverse=diverse))
        assert [floors.tolist() for floors in seen.floors] == [[score]]
        assert ids(found) == [["i0"]]
        _, _, scan, _ = traced_search(monkeypatch, build(entries, alpha=0.0, k=1, diverse=diverse),
                                      [[0.0, 0.0]], [30.0])
        assert scan.pool_seqs.tolist() == [[0, 1]]

    def test_whole_distances_tie_at_a_decayed_floor(self, monkeypatch):
        """Decay on: the second shard's rows are as far in time as the pool's
        and at the same whole distances (3 and 4), so each ties a pool score."""
        entries = [([3.0, 0.0], 36.0, "A"), ([0.0, 4.0], 36.0, "B")]
        entries += [([0.0, 3.0], 24.0, "A"), ([4.0, 0.0], 24.0, "B")]
        for diverse in (True, False):
            found, seen = check(monkeypatch, entries, [[0.0, 0.0]], [30.0],
                                dict(alpha=0.2, diverse=diverse))
            assert seen.floors and ids(found)[0][0] == "i0"
            found, seen = check(monkeypatch, entries, [[0.0, 0.0]], [30.0],
                                dict(alpha=0.2, diverse=diverse), k=2)
            assert not seen.floors  # a pool of four: two rows leave it open
            assert ids(found)[0][0] == "i0"


class TestBounds:
    def two_bound_history(self):
        """Query A (day 21) reads shard 20-24 first, query B (day 12) shard
        10-14; both then nominate shard 16-19, A 2 days from it and B 4.  A's
        pool holds scores 1/5, B's 1/10; the row at distance 1/2 on day 19
        scores ``e^-1 / 1.5`` for A, above A's floor, and A's limit keeps it
        only from A's own bound (``(e^-2 / 0.2 - 1)^2 < 1/4``)."""
        return [
            ([4.0, 0.0], 21.0, "A"), ([0.0, 4.0], 21.0, "A"),
            ([9.0, 0.0], 12.0, "B"), ([0.0, 9.0], 12.0, "B"),
            ([0.5, 0.0], 19.0, "C"), ([0.0, 9.0], 16.0, "C"),
        ]

    @pytest.mark.parametrize("diverse", [True, False])
    def test_each_row_scores_against_its_own_bound(self, monkeypatch, diverse):
        entries = self.two_bound_history()
        found, seen = check(monkeypatch, entries, [[0.0, 0.0], [0.0, 0.0]], [21.0, 12.0],
                            dict(alpha=0.5, diverse=diverse))
        assert [bounds.tolist() for bounds in seen.bounds] == [
            [math.exp(-0.5 * 2.0), math.exp(-0.5 * 4.0)]
        ]
        assert ids(found)[0][0] == "i4"

    def test_k_override(self, monkeypatch):
        entries = self.two_bound_history()
        found, seen = check(monkeypatch, entries, [[0.0, 0.0], [0.0, 0.0]], [21.0, 12.0],
                            dict(alpha=0.5, diverse=False, k=3), k=1)
        assert seen.floors and ids(found)[0] == ["i4"]


class TestRemovedCells:
    """Cells a filter removes never come back through the prefilter, even
    when they are the nearest of a prefiltered block."""

    def history(self):
        # Pool (k = 1) from the shard of day 30: two rows at distance 3.
        entries = [([3.0, 0.0], 30.0, "A"), ([0.0, 3.0], 30.0, "A")]
        # The next shard: exact matches, each removed by one filter, and a
        # row at distance 1 that every filter keeps.
        entries += [([0.0, 0.0], 36.0, "B"), ([0.0, 0.0], 37.0, "Z"),
                    ([0.0, 0.0], 38.0, "A"), ([1.0, 0.0], 36.0, "A")]
        return entries

    @pytest.mark.parametrize("diverse", [True, False])
    @pytest.mark.parametrize(
        "filters, expected",
        [
            (dict(exclude_ids=[{"i2", "i3", "i4"}]), "i5"),
            (dict(history_before_day=37.0, exclude_ids=[{"i2"}]), "i5"),
            (dict(categories={"A"}, exclude_ids=[{"i4"}]), "i5"),
            (dict(categories={"A", "B"}, history_before_day=37.5), "i2"),
        ],
        ids=["excluded", "history", "categories", "filters only"],
    )
    def test_a_removed_cell_is_never_taken(self, monkeypatch, diverse, filters, expected):
        found, seen = check(monkeypatch, self.history(), [[0.0, 0.0]], [31.0],
                            dict(alpha=0.1, diverse=diverse), **filters)
        assert seen.floors
        assert ids(found)[0][0] == expected


class TestMixedFloors:
    @pytest.mark.parametrize("diverse", [True, False])
    def test_a_block_with_a_row_without_a_floor_scores_whole(self, monkeypatch, diverse):
        """Two queries nominate the shard of day 40 together; the second
        excluded every row of its own shard, so it has no floor yet, and
        the block is scored whole: its far rows (squared distance 8, past
        a limit near 1) are its neighbours."""
        entries = [([0.0, 0.0], 30.0, "A"), ([1.0, 0.0], 30.0, "B")]
        entries += [([2.0, 2.0], 40.0, "A"), ([-2.0, 2.0], 40.0, "B")]
        found, seen = check(monkeypatch, entries, [[0.0, 0.0], [0.0, 0.0]], [30.0, 30.0],
                            dict(diverse=diverse), exclude_ids=[None, {"i0", "i1"}])
        assert seen.floors == []
        assert ids(found) == [["i0"], ["i2"]]

    @pytest.mark.parametrize("diverse", [True, False])
    def test_one_wave_prefilters_one_block_and_scores_another_whole(self, monkeypatch,
                                                                    diverse):
        """Wave two: query A (day 30) nominates the shard of day 36 with a
        full pool; query B (day 10) nominates the shard of day 16 with one
        row seen so far (k = 1: a pool of two), so no floor.  Both blocks
        merge at the end of the same wave."""
        entries = [([0.0, 1.0], 30.0, "A"), ([1.0, 0.0], 30.0, "A"), ([0.0, 0.0], 36.0, "A")]
        entries += [([2.0, 0.0], 10.0, "B"), ([3.0, 0.0], 16.0, "B"), ([0.0, 3.0], 16.0, "C")]
        found, seen = check(monkeypatch, entries, [[0.0, 0.0], [0.0, 0.0]], [30.0, 10.0],
                            dict(alpha=0.1, diverse=diverse))
        assert [floors.shape for floors in seen.floors] == [(1,)]
        _, _, _, trace = traced_search(
            monkeypatch, build(entries, alpha=0.1, k=1, diverse=diverse, window=5.0),
            [[0.0, 0.0], [0.0, 0.0]], [30.0, 10.0],
        )
        assert [len(keys) for keys in trace.taken_from][:2] == [2, 2]
        assert ids(found)[0][0] == "i2"
