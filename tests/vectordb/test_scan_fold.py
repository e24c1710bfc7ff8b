"""The batch-major scan of ``ShardedVectorIndex.search_many`` against the per-query one.

``search_many`` keeps one search's candidates batch-major — a row per query —
and folds each scored shard block in one step: filters become ``-inf``
scores, the cells at or above each row's floor merge into the pools with one
flat ``lexsort`` and into the per-category bests with another, and the final
selection orders every query's candidates in numpy.  The per-query scan it
replaced — one candidate payload per (query, shard) pair, extracted on a
fast or a filtered path, folded and merged one query at a time, and a final
selection that walks every covered category in Python — is kept here as the
reference.  Both score through the same ``score_block``, so neighbour ids,
similarities (to the bit) and every scan counter must agree; the cases below
are the ones where the ``-inf`` sentinel, a boundary tie or the in-batch
dedup could make them differ.

The floor is the query's pool minimum (lowered to ``kth_best`` with
diversity on) or, while that is still ``-inf``, one the block gives from its
``2k``-th largest category maximum or score.  A fold without any floor —
each row's top ``2k`` into the pools and every category's argmax into the
bests (``dense_fold``, self-contained here) — is the third reference:
patched in for ``_ScanState.fold``, it must leave the same results,
counters, pools, ``kth_best`` and category bests at or above ``kth_best``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.vectordb import Neighbor, ShardedVectorIndex, SimilarityConfig, select_complete_order
from repro.vectordb.scoring import score_block
from repro.vectordb.sharded import _ScanState

COUNTERS = (
    "queries",
    "shards_considered",
    "shards_scanned",
    "shards_pruned",
    "shards_skipped",
    "entries_scanned",
)


# --------------------------------------------------------------- reference
class Candidates:
    """One query's candidates from one scored shard (the per-query payload)."""

    def __init__(self, entries_scanned, scores, seqs, rows, best_codes=None,
                 best_scores=None, best_seqs=None, best_rows=None):
        self.entries_scanned = entries_scanned
        self.scores = scores
        self.seqs = seqs
        self.rows = rows
        self.best_codes = best_codes
        self.best_scores = best_scores
        self.best_seqs = best_seqs
        self.best_rows = best_rows


class QueryState:
    """Per-query scan state: shard cursor, candidate pool, per-category bests."""

    def __init__(self, order, category_count, k):
        self.order = order
        self.pos = 0
        self.pool_scores = np.zeros(0)
        self.pool_seqs = np.zeros(0, dtype=np.int64)
        self.pool_keys = np.zeros(0, dtype=np.int64)
        self.pool_rows = np.zeros(0, dtype=np.int64)
        self.best_scores = np.full(category_count, -math.inf)
        self.best_seqs = np.zeros(category_count, dtype=np.int64)
        self.best_keys = np.zeros(category_count, dtype=np.int64)
        self.best_rows = np.zeros(category_count, dtype=np.int64)
        self.k = k
        self.kth_best = -math.inf
        self.done = False
        self.scanned = 0
        self.pruned = 0
        self.skipped = 0

    def pool_min(self, pool_size):
        if self.pool_scores.shape[0] < pool_size:
            return -math.inf
        return float(self.pool_scores[-1])

    def update_category_bests(self, codes, scores, seqs, rows, shard_key):
        current_scores = self.best_scores[codes]
        improve = (scores > current_scores) | (
            (scores == current_scores) & (seqs < self.best_seqs[codes])
        )
        if improve.any():
            winners = codes[improve]
            self.best_scores[winners] = scores[improve]
            self.best_seqs[winners] = seqs[improve]
            self.best_keys[winners] = shard_key
            self.best_rows[winners] = rows[improve]
        if self.best_scores.shape[0] >= self.k:
            self.kth_best = float(np.partition(self.best_scores, -self.k)[-self.k])


def select_candidates(total, scores, seqs, rows, codes, pool_size, diverse):
    order = np.argsort(-scores, kind="stable")
    keep = order[:pool_size]
    if not diverse:
        return Candidates(total, scores[keep], seqs[keep], rows[keep].astype(np.int64))
    codes_in_order = codes[order]
    _, first = np.unique(codes_in_order, return_index=True)
    argmax = order[first]
    keep = np.union1d(keep, argmax)
    return Candidates(
        total, scores[keep], seqs[keep], rows[keep].astype(np.int64),
        best_codes=codes_in_order[first], best_scores=scores[argmax],
        best_seqs=seqs[argmax], best_rows=rows[argmax].astype(np.int64),
    )


def extract_filtered_row(data, scores_row, exclude_rows, history_before_day,
                         allowed_codes, pool_size, diverse):
    total = data.total
    mask = None
    if history_before_day is not None:
        mask = data.days < history_before_day
    if allowed_codes is not None:
        allowed = np.isin(data.codes, np.asarray(allowed_codes, dtype=np.int64))
        mask = allowed if mask is None else (mask & allowed)
    if exclude_rows:
        if mask is None:
            mask = np.ones(total, dtype=bool)
        mask[np.asarray(exclude_rows, dtype=np.int64)] = False
    eligible = np.flatnonzero(mask)
    if eligible.shape[0] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return Candidates(total, np.zeros(0), empty, empty)
    return select_candidates(
        total, scores_row[eligible], data.seqs[eligible], eligible,
        data.codes[eligible] if diverse else None, pool_size, diverse,
    )


def extract_fast(data, sub, fast, pool_size, diverse, payloads):
    total = sub.shape[1]
    seqs = data.seqs
    if total <= pool_size:
        top_matrix = np.broadcast_to(np.arange(total), (sub.shape[0], total))
        tie_fix_rows = ()
    else:
        top_matrix = np.argpartition(-sub, pool_size - 1, axis=1)[:, :pool_size]
        boundary = np.take_along_axis(sub, top_matrix, axis=1).min(axis=1)
        ties_total = (sub == boundary[:, None]).sum(axis=1)
        above = (sub > boundary[:, None]).sum(axis=1)
        tie_fix_rows = np.flatnonzero(above + ties_total > pool_size)
    argmax_matrix = None
    group_codes = None
    if diverse:
        perm, starts, sizes, group_codes = data.groups()
        grouped = sub[:, perm]
        group_maxes = np.maximum.reduceat(grouped, starts, axis=1)
        positions = np.where(
            grouped == np.repeat(group_maxes, sizes, axis=1),
            np.arange(total)[None, :],
            total,
        )
        first = np.minimum.reduceat(positions, starts, axis=1)
        argmax_matrix = perm[first]
    for offset, position in enumerate(fast):
        scores_row = sub[offset]
        if len(tie_fix_rows) and offset in tie_fix_rows:
            threshold = boundary[offset]
            keep_above = np.flatnonzero(scores_row > threshold)
            tied = np.flatnonzero(scores_row == threshold)
            top = np.concatenate([keep_above, tied[: pool_size - keep_above.shape[0]]])
        else:
            top = top_matrix[offset]
        if argmax_matrix is None:
            payloads[position] = Candidates(
                total, scores_row[top], seqs[top], top.astype(np.int64)
            )
        else:
            argmax_rows = argmax_matrix[offset]
            keep_rows = np.union1d(top, argmax_rows)
            payloads[position] = Candidates(
                total, scores_row[keep_rows], seqs[keep_rows], keep_rows.astype(np.int64),
                best_codes=group_codes, best_scores=scores_row[argmax_rows],
                best_seqs=seqs[argmax_rows], best_rows=argmax_rows.astype(np.int64),
            )


def extract_block(data, queries_block, days_block, exclude_rows, history_before_day,
                  allowed_codes, pool_size, diverse, alpha):
    block = queries_block.shape[0]
    payloads: List[Optional[Candidates]] = [None] * block
    batch_filtered = history_before_day is not None or allowed_codes is not None
    fast, slow = [], []
    for position in range(block):
        (slow if batch_filtered or exclude_rows[position] else fast).append(position)
    scores = score_block(
        data.matrix, data.sq_norms, data.days, queries_block, days_block, alpha
    )
    for position in slow:
        payloads[position] = extract_filtered_row(
            data, scores[position], exclude_rows[position],
            history_before_day, allowed_codes, pool_size, diverse,
        )
    if fast:
        extract_fast(data, scores[fast], fast, pool_size, diverse, payloads)
    return payloads


def merge_pool(state, shard_key, cand_scores, cand_seqs, cand_rows, pool_size):
    merged_scores = np.concatenate([state.pool_scores, cand_scores])
    merged_seqs = np.concatenate([state.pool_seqs, cand_seqs])
    merged_keys = np.concatenate(
        [state.pool_keys, np.full(cand_rows.shape[0], shard_key, dtype=np.int64)]
    )
    merged_rows = np.concatenate([state.pool_rows, cand_rows])
    retained = np.lexsort((merged_seqs, -merged_scores))[:pool_size]
    state.pool_scores = merged_scores[retained]
    state.pool_seqs = merged_seqs[retained]
    state.pool_keys = merged_keys[retained]
    state.pool_rows = merged_rows[retained]


def fold(state, shard_key, candidates, pool_size, counters):
    state.scanned += 1
    counters["entries_scanned"] += candidates.entries_scanned
    if candidates.best_codes is not None:
        state.update_category_bests(
            candidates.best_codes, candidates.best_scores,
            candidates.best_seqs, candidates.best_rows, shard_key,
        )
    if candidates.rows.shape[0]:
        merge_pool(state, shard_key, candidates.scores, candidates.seqs,
                   candidates.rows, pool_size)


def finalize(index, state, k, diverse):
    shards = index._shards
    combined: Dict[Tuple[int, int], Tuple[float, int, int, int]] = {}
    for position in range(state.pool_scores.shape[0]):
        key = int(state.pool_keys[position])
        row = int(state.pool_rows[position])
        combined[(key, row)] = (
            float(state.pool_scores[position]), int(state.pool_seqs[position]), key, row
        )
    for code in np.flatnonzero(state.best_scores > -math.inf):
        key = int(state.best_keys[code])
        row = int(state.best_rows[code])
        combined.setdefault(
            (key, row), (float(state.best_scores[code]), int(state.best_seqs[code]), key, row)
        )
    ordered = sorted(combined.values(), key=lambda item: (-item[0], item[1]))
    picks = select_complete_order(
        [shards[key].store.entry(row).category for _, _, key, row in ordered], k, diverse
    )
    return [
        Neighbor(entry=shards[key].store.entry(row), similarity=score)
        for score, _, key, row in (ordered[p] for p in picks)
    ]


def can_prune(index, state, shard, upper_bound, pool_size, diverse, categories):
    if state.pool_min(pool_size) <= upper_bound:
        return False
    if diverse:
        if categories is None:
            group_codes = shard.data().groups()[3]
            return bool(np.all(state.best_scores[group_codes] > upper_bound))
        for category in shard.cat_counts:
            if category not in categories:
                continue
            code = index._cat_code.get(category)
            if code is None or state.best_scores[code] <= upper_bound:
                return False
    return True


def advance(index, state, diverse, pool_size, history_before_day, categories):
    while state.pos < len(state.order):
        upper_bound, key = state.order[state.pos]
        shard = index._shards[key]
        if history_before_day is not None and shard.min_day >= history_before_day:
            state.skipped += 1
            state.pos += 1
            continue
        if categories is not None and not any(c in categories for c in shard.cat_counts):
            state.skipped += 1
            state.pos += 1
            continue
        if diverse and state.kth_best > upper_bound:
            state.pruned += len(state.order) - state.pos
            state.pos = len(state.order)
            return None
        if can_prune(index, state, shard, upper_bound, pool_size, diverse, categories):
            state.pruned += 1
            state.pos += 1
            continue
        return key
    return None


def exclude_rows(index, shard, exclude):
    if not exclude:
        return ()
    return tuple(sorted(
        shard.store.index_of(incident_id)
        for incident_id in exclude
        if index._locator.get(incident_id) == shard.key
    ))


def reference_search(index, queries, days, counters, k=None, exclude_ids=None,
                     history_before_day=None, categories=None):
    """The per-query ``search_many``; adds its scan counters to ``counters``."""
    k = k or index.similarity.k
    categories = categories or None
    queries = np.asarray(queries, dtype=np.float64)
    days = np.asarray(days, dtype=np.float64).ravel()
    total_queries = queries.shape[0]
    if not index._locator:
        return [[] for _ in range(total_queries)]
    group_of, group_rows, group_excludes, group_index = [], [], [], {}
    for row in range(total_queries):
        raw = exclude_ids[row] if exclude_ids is not None else None
        effective = (
            frozenset(i for i in raw if i in index._locator) if raw else frozenset()
        )
        group_key = (queries[row].tobytes(), float(days[row]), effective)
        if group_key not in group_index:
            group_index[group_key] = len(group_rows)
            group_rows.append(row)
            group_excludes.append(set(effective) if effective else None)
        group_of.append(group_index[group_key])
    if len(group_rows) < total_queries:
        grouped = reference_search(
            index, queries[group_rows], days[group_rows], counters, k=k,
            exclude_ids=group_excludes, history_before_day=history_before_day,
            categories=categories,
        )
        duplicates = total_queries - len(group_rows)
        counters["queries"] += duplicates
        counters["shards_considered"] += duplicates * len(index._shards)
        return [list(grouped[group_of[row]]) for row in range(total_queries)]
    diverse = index.similarity.diverse_categories
    alpha = index.similarity.alpha
    pool_size = 2 * k
    shard_keys = sorted(index._shards)
    min_days = np.array([index._shards[key].min_day for key in shard_keys])
    max_days = np.array([index._shards[key].max_day for key in shard_keys])
    day_column = days[:, None]
    dt_matrix = np.where(
        (min_days <= day_column) & (day_column <= max_days),
        0.0,
        np.minimum(np.abs(day_column - min_days), np.abs(day_column - max_days)),
    )
    orderings = np.argsort(dt_matrix, axis=1, kind="stable")
    bound_matrix = np.exp(-alpha * dt_matrix)
    states = [
        QueryState(
            [(float(bound_matrix[qi, p]), shard_keys[p]) for p in orderings[qi]],
            len(index._cat_code),
            k,
        )
        for qi in range(total_queries)
    ]
    allowed_codes = None
    if categories is not None:
        allowed_codes = tuple(sorted(
            index._cat_code[c] for c in categories if c in index._cat_code
        ))
    while True:
        nominations: Dict[int, List[int]] = {}
        for qi, state in enumerate(states):
            if state.done:
                continue
            key = advance(index, state, diverse, pool_size, history_before_day, categories)
            if key is None:
                state.done = True
            else:
                nominations.setdefault(key, []).append(qi)
        if not nominations:
            break
        for key in sorted(nominations):
            shard = index._shards[key]
            qrows = nominations[key]
            payloads = extract_block(
                shard.data(), queries[qrows], days[qrows],
                [exclude_rows(index, shard, exclude_ids[qi] if exclude_ids else None)
                 for qi in qrows],
                history_before_day, allowed_codes, pool_size, diverse, alpha,
            )
            for qi, candidates in zip(qrows, payloads):
                fold(states[qi], key, candidates, pool_size, counters)
                states[qi].pos += 1
    counters["queries"] += total_queries
    counters["shards_considered"] += total_queries * len(index._shards)
    for state in states:
        counters["shards_scanned"] += state.scanned
        counters["shards_pruned"] += state.pruned
        counters["shards_skipped"] += state.skipped
    return [finalize(index, state, k, diverse) for state in states]


# ------------------------------------------------------------------ helpers
def build(entries, alpha=0.3, k=3, diverse=True, window=5.0):
    """A sharded index over ``(vector, day, category)`` rows, ids ``i<row>``."""
    index = ShardedVectorIndex(
        SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse), window_days=window
    )
    for row, (vector, day, category) in enumerate(entries):
        index.add(f"i{row}", np.asarray(vector, dtype=float), float(day), category)
    return index


def assert_matches_reference(index, queries, days, **kwargs):
    """Same neighbour ids, bit-identical similarities, same scan counters."""
    expected_counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
    expected = reference_search(index, queries, days, expected_counters, **kwargs)
    before = index.stats()
    produced = index.search_many(np.asarray(queries, dtype=float), days, **kwargs)
    after = index.stats()
    assert [[n.incident_id for n in found] for found in produced] == [
        [n.incident_id for n in found] for found in expected
    ]
    assert [[float(n.similarity).hex() for n in found] for found in produced] == [
        [float(n.similarity).hex() for n in found] for found in expected
    ]
    assert {name: after[name] - before[name] for name in COUNTERS} == expected_counters
    return produced


def random_entries(rng, count, categories, duration, dim=4):
    return [
        (rng.standard_normal(dim), day, f"c{code}")
        for day, code in zip(
            rng.uniform(0.0, duration, size=count), rng.integers(0, categories, size=count)
        )
    ]


# -------------------------------------------------------------- properties
GRID = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=2, max_size=2)


@st.composite
def scan_cases(draw):
    """A tie-heavy index, a query batch (duplicates likely) and filters."""
    entries = draw(
        st.lists(
            st.tuples(GRID, st.integers(0, 40).map(float), st.sampled_from("ABCDE")),
            min_size=1,
            max_size=60,
        )
    )
    queries = draw(
        st.lists(st.tuples(GRID, st.integers(0, 50).map(float)), min_size=1, max_size=6)
    )
    queries += draw(st.lists(st.sampled_from(queries), max_size=3))
    filters = {}
    if draw(st.booleans()):
        filters["history_before_day"] = float(draw(st.integers(0, 45)))
    if draw(st.booleans()):
        filters["categories"] = set(draw(st.lists(st.sampled_from("ABCDEZ"), max_size=3)))
    if draw(st.booleans()):
        filters["exclude_ids"] = [
            {f"i{row}" for row in draw(st.lists(st.integers(0, len(entries)), max_size=8))}
            for _ in queries
        ]
    if draw(st.booleans()):
        filters["k"] = draw(st.integers(1, 8))
    config = dict(
        alpha=draw(st.sampled_from([0.0, 0.2, 1.0])),
        k=draw(st.integers(1, 7)),
        diverse=draw(st.booleans()),
        window=draw(st.sampled_from([2.0, 5.0, 15.0])),
    )
    return entries, queries, filters, config


class TestMatchesPerQueryScan:
    @given(case=scan_cases())
    # Mirrored ties: the same vector 6 days either side of the query, in two
    # shards, with a third category far away.
    @example(
        case=(
            [([1.0, 0.0], 26.0, "C"), ([1.0, 0.0], 14.0, "A"), ([1.0, 0.0], 14.0, "B"),
             ([-1.0, 0.0], 15.0, "A")],
            [([1.0, 0.0], 20.0)],
            {},
            dict(alpha=0.2, k=2, diverse=True, window=5.0),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_batches(self, case):
        entries, queries, filters, config = case
        index = build(entries, **config)
        assert_matches_reference(
            index,
            np.array([vector for vector, _ in queries]),
            [day for _, day in queries],
            **filters,
        )

    @pytest.mark.parametrize("diverse", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_random_corpus_every_filter(self, diverse, k):
        """Shards far wider than 2k: block floors from maxima and from scores."""
        rng = np.random.default_rng(k)
        index = build(random_entries(rng, 900, 25, 120.0), alpha=0.1, k=k,
                      diverse=diverse, window=10.0)
        queries = rng.standard_normal((12, 4))
        days = rng.uniform(0.0, 130.0, size=12)
        excludes = [{f"i{int(row)}" for row in rng.integers(0, 900, size=40)} for _ in range(12)]
        for filters in (
            {},
            dict(history_before_day=70.0),
            dict(categories={"c1", "c4", "c9", "absent"}),
            dict(exclude_ids=excludes),
            dict(exclude_ids=excludes, history_before_day=90.0, categories={"c2", "c3"}),
        ):
            assert_matches_reference(index, queries, days, **filters)


class TestSentinelCases:
    """Where an empty slot's ``-inf`` could be mistaken for a candidate."""

    def test_shards_smaller_than_the_pool(self):
        rng = np.random.default_rng(3)
        index = build(random_entries(rng, 40, 6, 60.0), k=6, window=2.0)
        assert max(index.shard_sizes().values()) < 12
        assert_matches_reference(index, rng.standard_normal((5, 4)), rng.uniform(0, 70, 5))

    @pytest.mark.parametrize(
        "filters, eligible",
        [
            (dict(history_before_day=1.5), lambda day, category: day < 1.5),
            (dict(categories={"rare"}), lambda day, category: category == "rare"),
        ],
        ids=["history_before_day", "categories"],
    )
    def test_fewer_than_2k_eligible_in_every_shard(self, filters, eligible):
        rng = np.random.default_rng(4)
        entries = random_entries(rng, 300, 8, 90.0)
        entries += [(rng.standard_normal(4), day, "rare") for day in (5.0, 40.0, 85.0)]
        index = build(entries, k=4, window=10.0)
        count = sum(1 for _, day, category in entries if eligible(day, category))
        assert 0 < count < 8
        found = assert_matches_reference(
            index, rng.standard_normal((6, 4)), rng.uniform(0, 90, 6), **filters
        )
        assert all(len(neighbours) == min(4, count) for neighbours in found)

    def test_a_shard_with_every_row_excluded(self):
        rng = np.random.default_rng(5)
        index = build(random_entries(rng, 200, 10, 50.0), k=3, window=10.0)
        near = [i for i in range(200) if index._locator[f"i{i}"] == 4]  # noqa: SLF001
        assert near
        queries = rng.standard_normal((4, 4))
        days = [45.0, 45.0, 44.0, 20.0]
        excluded = {f"i{row}" for row in near}
        assert_matches_reference(
            index, queries, days, exclude_ids=[excluded, None, excluded, excluded]
        )

    def test_category_filter_naming_only_absent_categories(self):
        rng = np.random.default_rng(6)
        index = build(random_entries(rng, 100, 5, 50.0), k=3)
        found = assert_matches_reference(
            index, rng.standard_normal((3, 4)), [10.0, 20.0, 30.0], categories={"nowhere"}
        )
        assert found == [[], [], []]
        assert index.stats()["shards_skipped"] == 3 * index.stats()["shard_count"]

    @pytest.mark.parametrize("diverse", [True, False])
    def test_k_above_the_category_count(self, diverse):
        rng = np.random.default_rng(7)
        index = build(random_entries(rng, 120, 3, 60.0), k=7, diverse=diverse)
        found = assert_matches_reference(
            index, rng.standard_normal((4, 4)), rng.uniform(0, 60, 4)
        )
        assert all(len(neighbours) == 7 for neighbours in found)

    def test_exact_ties_straddle_the_pool_boundary(self):
        """Twelve identical entries in one shard, k = 2: which four stay is by seq."""
        query = [1.0, 1.0]
        entries = [([3.0, 1.0], 10.0, "far")] + [(query, 11.0, f"t{i % 3}") for i in range(12)]
        entries += [(query, 9.0, "late")]
        for diverse in (True, False):
            index = build(entries, k=2, diverse=diverse, window=20.0)
            assert_matches_reference(index, np.array([query, query]), [10.0, 10.5])

    def test_mirrored_ties_across_shards(self):
        """Equal scores on both sides of the query day, in different shards."""
        query = [0.0, 1.0]
        entries = []
        for gap in (3.0, 6.0, 9.0):
            entries += [(query, 30.0 + gap, f"after{gap}"), (query, 30.0 - gap, f"before{gap}")]
        for diverse in (True, False):
            index = build(entries, k=2, diverse=diverse, window=5.0)
            assert_matches_reference(index, np.array([query]), [30.0])

    def test_mirrored_tie_inside_one_category_goes_to_the_lower_sequence(self):
        """A category's best is decided across shards by sequence on a tie.

        Four exact matches of "A" fill the pool, so "B" reaches the result
        only through its category best.  Its two entries score the same, 6
        days either side of the query; the earlier day's shard (lower key)
        is scanned first, but the later day's entry was inserted first.
        """
        query = [0.0, 0.0]
        entries = [([1.0, 0.0], 36.0, "B"), ([1.0, 0.0], 24.0, "B")]
        entries += [(query, 30.0, "A") for _ in range(4)]
        index = build(entries, k=2, window=5.0)
        found = assert_matches_reference(index, np.array([query]), [30.0])
        assert [n.incident_id for n in found[0]] == ["i2", "i0"]
        assert index.stats()["shards_scanned"] == 3.0

    def test_duplicate_queries_in_one_batch(self):
        rng = np.random.default_rng(8)
        index = build(random_entries(rng, 300, 12, 80.0), k=4, window=8.0)
        queries = rng.standard_normal((3, 4))
        stacked = np.vstack([queries, queries, queries[:1]])
        days = [30.0, 50.0, 70.0] * 2 + [30.0]
        excludes = [None, {"i1"}, None, None, {"i1", "absent"}, None, {"absent"}]
        assert_matches_reference(index, stacked, days, exclude_ids=excludes)
        assert index.stats()["queries"] == 7.0


# ------------------------------------------------------- the dense fold
def top_rows(scores, size):
    """Per row of ``scores``, the columns of its top ``size`` scores, as a set.

    Columns index a shard's rows, which ascend with the global insertion
    sequence, so the flat scan's (score desc, seq asc) ranking is (score
    desc, column asc): where ties straddle ``argpartition``'s boundary the
    lowest-column ties are kept.  A row with fewer than ``size`` eligible
    (finite) scores keeps all of them plus arbitrary ``-inf`` fillers.
    """
    block, total = scores.shape
    if total <= size:
        return np.broadcast_to(np.arange(total), (block, total))
    cut = total - size
    top = np.argpartition(scores, cut, axis=1)[:, cut:]
    # argpartition leaves each row's size-th largest score first in ``top``.
    boundary = scores[np.arange(block), top[:, 0]]
    straddles = (scores >= boundary[:, None]).sum(axis=1) > size
    for row in np.flatnonzero(straddles & (boundary > -math.inf)):
        above = np.flatnonzero(scores[row] > boundary[row])
        tied = np.flatnonzero(scores[row] == boundary[row])
        top[row] = np.concatenate([above, tied[: size - above.shape[0]]])
    return top


def fold_category_argmaxes(self, queries, data, scores):
    """Fold every category's argmax in the block into the bests.

    Group maxima come from one ``reduceat`` over the rows grouped by
    category; the first position attaining each maximum (lowest row, hence
    lowest sequence) from one ``searchsorted`` over the flat positions where
    maxima are attained.  An argmax replaces its (query, category) best when
    it wins by (score desc, seq asc); a group whose rows were all filtered
    (``-inf``) changes nothing.
    """
    perm, starts, sizes, group_codes = data.groups()
    total = data.total
    grouped = np.take(scores, perm, axis=1)
    maxima = np.maximum.reduceat(grouped, starts, axis=1)
    attained = np.flatnonzero(grouped == np.repeat(maxima, sizes, axis=1))
    row_starts = np.arange(0, queries.shape[0] * total, total)[:, None]
    first = attained[np.searchsorted(attained, (row_starts + starts).ravel())]
    argmax = perm[first.reshape(maxima.shape) - row_starts]
    cells = (queries[:, None], group_codes)
    held, held_seqs = self.best_scores[cells], self.best_seqs[cells]
    seqs = data.seqs[argmax]
    improve = (maxima > held) | ((maxima == held) & (seqs < held_seqs))
    improve &= maxima > -math.inf
    self.best_scores[cells] = np.where(improve, maxima, held)
    self.best_seqs[cells] = np.where(improve, seqs, held_seqs)
    self.best_keys[cells] = np.where(improve, data.key, self.best_keys[cells])
    self.best_rows[cells] = np.where(improve, argmax, self.best_rows[cells])
    if self.best_scores.shape[1] >= self.k:
        kth = np.partition(self.best_scores[queries], -self.k, axis=1)[:, -self.k]
        self.kth_best[queries] = kth


def dense_fold(self, queries, data, scores):
    """``_ScanState.fold`` without a floor: every block folded dense, pools merged row by row."""
    size = self.pool_size
    block = np.arange(queries.shape[0])[:, None]
    top = top_rows(scores, size)
    merged_scores = np.concatenate((self.pool_scores[queries], scores[block, top]), axis=1)
    merged_seqs = np.concatenate((self.pool_seqs[queries], data.seqs[top]), axis=1)
    kept = np.lexsort((merged_seqs, -merged_scores), axis=-1)[:, :size]
    self.pool_scores[queries] = merged_scores[block, kept]
    self.pool_seqs[queries] = merged_seqs[block, kept]
    for pool, fresh in (
        (self.pool_keys, np.full(top.shape, data.key)),
        (self.pool_rows, top),
        (self.pool_codes, data.codes[top]),
    ):
        pool[queries] = np.concatenate((pool[queries], fresh), axis=1)[block, kept]
    if self.diverse:
        fold_category_argmaxes(self, queries, data, scores)


POOL = ("pool_scores", "pool_seqs", "pool_keys", "pool_rows", "pool_codes")
BESTS = ("best_scores", "best_seqs", "best_keys", "best_rows")


class Trace:
    """What one search's fold saw and decided."""

    def __init__(self):
        #: Per folded block, each row's floor as its scan state gave it.
        self.floors: List[np.ndarray] = []
        #: Per block with a row still at ``-inf``: the floor the block gave.
        self.block_floors: List[np.ndarray] = []
        #: Per merge into the pools: the scores of the cells taken.
        self.taken: List[np.ndarray] = []


def traced_search(monkeypatch, index, queries, days, fold=None, **kwargs):
    """One ``search_many``: its results, counter deltas, final scan state and
    a :class:`Trace` of its fold."""
    scans, trace = [], Trace()
    finalize = ShardedVectorIndex._finalize
    real_fold = fold or _ScanState.fold
    block_floor, merge_pool = _ScanState._block_floor, _ScanState._merge_pool

    def capturing(self, scan, k, diverse):
        scans.append(scan)
        return finalize(self, scan, k, diverse)

    def recording(self, queries, data, scores):
        floor = self.pool_scores[queries, -1]
        if self.diverse:
            floor = np.minimum(floor, self.kth_best[queries])
        trace.floors.append(floor.copy())
        real_fold(self, queries, data, scores)

    def recording_block_floor(self, data, scores):
        floor = block_floor(self, data, scores)
        trace.block_floors.append(np.broadcast_to(floor, scores.shape[:1]).copy())
        return floor

    def recording_merge_pool(self, queries, data, owner, rows, scores):
        trace.taken.append(scores.copy())
        merge_pool(self, queries, data, owner, rows, scores)

    with monkeypatch.context() as patch:
        patch.setattr(ShardedVectorIndex, "_finalize", capturing)
        patch.setattr(_ScanState, "fold", recording)
        patch.setattr(_ScanState, "_block_floor", recording_block_floor)
        patch.setattr(_ScanState, "_merge_pool", recording_merge_pool)
        before = index.stats()
        found = index.search_many(np.asarray(queries, dtype=float), days, **kwargs)
        after = index.stats()
    counters = {name: after[name] - before[name] for name in COUNTERS}
    return found, counters, (scans[-1] if scans else None), trace


def assert_matches_dense_fold(monkeypatch, index, queries, days, **kwargs):
    """The floor changes nothing a search returns, counts or keeps to the end:
    ids, similarity bits, scan counters, pools, ``kth_best`` and every
    category best at or above ``kth_best``; and the fold never takes a
    filtered (``-inf``) cell.  Returns the :class:`Trace` of the run."""
    found, counters, scan, trace = traced_search(monkeypatch, index, queries, days, **kwargs)
    expected, expected_counters, reference, _ = traced_search(
        monkeypatch, index, queries, days, fold=dense_fold, **kwargs
    )
    assert all(np.isfinite(cells).all() for cells in trace.taken)
    assert [[n.incident_id for n in row] for row in found] == [
        [n.incident_id for n in row] for row in expected
    ]
    assert [[float(n.similarity).hex() for n in row] for row in found] == [
        [float(n.similarity).hex() for n in row] for row in expected
    ]
    assert counters == expected_counters
    assert (scan is None) == (reference is None)
    if reference is not None:
        for name in POOL:
            np.testing.assert_array_equal(getattr(scan, name), getattr(reference, name), name)
        np.testing.assert_array_equal(scan.kth_best, reference.kth_best)
        read = reference.best_scores >= reference.kth_best[:, None]
        for name in BESTS:
            np.testing.assert_array_equal(
                getattr(scan, name)[read], getattr(reference, name)[read], name
            )
    return trace


def sparse_blocks(trace):
    """Blocks whose every row already had a floor from its scan state."""
    return sum(1 for floor in trace.floors if floor.min() > -math.inf)


def dense_case(monkeypatch, case):
    entries, queries, filters, config = case
    return assert_matches_dense_fold(
        monkeypatch,
        build(entries, **config),
        np.array([vector for vector, _ in queries]),
        [day for _, day in queries],
        **filters,
    )


class TestFloorMatchesDenseFold:
    """``fold`` takes only the cells at or above each row's floor, and no ``-inf`` one."""

    @given(case=scan_cases())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_tie_heavy_batches(self, monkeypatch, case):
        dense_case(monkeypatch, case)

    @pytest.mark.slow
    @given(case=scan_cases())
    @settings(max_examples=2000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_tie_heavy_batches_nightly(self, monkeypatch, case):
        dense_case(monkeypatch, case)

    @pytest.mark.parametrize("diverse", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_random_corpus_every_filter(self, monkeypatch, diverse, k):
        rng = np.random.default_rng(10 + k)
        index = build(random_entries(rng, 900, 25, 120.0), alpha=0.1, k=k,
                      diverse=diverse, window=10.0)
        queries = rng.standard_normal((12, 4))
        days = rng.uniform(0.0, 130.0, size=12)
        excludes = [{f"i{int(row)}" for row in rng.integers(0, 900, size=40)} for _ in range(12)]
        sparse = 0
        for filters in (
            {},
            dict(history_before_day=70.0),
            dict(categories={"c1", "c4", "c9", "absent"}),
            dict(exclude_ids=excludes, history_before_day=90.0, categories={"c2", "c3"}),
        ):
            sparse += sparse_blocks(assert_matches_dense_fold(
                monkeypatch, index, queries, days, **filters
            ))
        assert sparse

    @pytest.mark.parametrize("diverse", [True, False])
    def test_a_later_shard_ties_the_pool_minimum(self, monkeypatch, diverse):
        """The tie at the floor holds the lower sequence and must be folded.

        The query's pool (k = 1: two slots) fills with two exact matches 6
        days before it; the shard 6 days after it, scanned second, holds
        the same vector inserted first.
        """
        vector = [1.0, 0.0]
        index = build([(vector, 36.0, "A"), (vector, 24.0, "A"), (vector, 24.0, "A")],
                      alpha=0.2, k=1, diverse=diverse)
        trace = assert_matches_dense_fold(monkeypatch, index, np.array([vector]), [30.0])
        assert sparse_blocks(trace) == 1
        found, _, scan, _ = traced_search(monkeypatch, index, [vector], [30.0])
        assert [n.incident_id for n in found[0]] == ["i0"]
        assert scan.pool_seqs.tolist() == [[0, 1]]

    def test_two_categories_tie_kth_best_across_shards(self, monkeypatch):
        """The second diverse pick is a tie at ``kth_best``, below the pool
        minimum, decided by sequence across shards (no decay: alpha = 0).

        The query's own shard gives four exact "A" matches (the pool) and
        "B"; a shard 10 days later holds "C" at B's score, inserted first.
        """
        entries = [([1.0, 0.0], 40.0, "C")]
        entries += [([0.0, 0.0], 30.0, "A") for _ in range(4)] + [([1.0, 0.0], 30.0, "B")]
        index = build(entries, alpha=0.0, k=2)
        trace = assert_matches_dense_fold(monkeypatch, index, np.array([[0.0, 0.0]]), [30.0])
        assert sparse_blocks(trace) == 1
        found, _, scan, _ = traced_search(monkeypatch, index, [[0.0, 0.0]], [30.0])
        assert [n.incident_id for n in found[0]] == ["i1", "i0"]
        assert scan.kth_best.tolist() == [0.5] and scan.pool_scores.min() == 1.0

    @pytest.mark.parametrize("diverse", [True, False])
    def test_a_block_mixing_finite_and_minus_inf_floors(self, monkeypatch, diverse):
        """Two queries nominate the same shard while only one has a floor.

        Both scan the shard of their day first; the second excludes every
        row of it, so its pool is still empty when both reach the next shard.
        """
        rng = np.random.default_rng(12)
        entries = [(rng.standard_normal(2), day, f"c{i % 3}")
                   for i, day in enumerate(np.repeat([20.0, 30.0, 40.0], 8))]
        index = build(entries, alpha=0.0, k=2, diverse=diverse)
        own = {f"i{row}" for row in range(8, 16)}
        query = rng.standard_normal(2)
        trace = assert_matches_dense_fold(
            monkeypatch, index, np.array([query, query]), [30.0, 30.0],
            exclude_ids=[None, own],
        )
        mixed = [floor for floor in trace.floors if floor.shape[0] == 2
                 and floor.max() > -math.inf and floor.min() == -math.inf]
        assert mixed


# ---------------------------------------------------- first-block floors
LOWEST = -np.finfo(np.float64).max


def axis_entries(rows, day=10.0):
    """``(distance, category)`` rows as entries at distance ``distance`` from
    the origin; with ``alpha = 0`` each scores exactly ``1 / (1 + distance)``."""
    return [([distance, 0.0], day, category) for distance, category in rows]


def first_block(monkeypatch, index, queries, days, **kwargs):
    """Checks one search against the dense fold and the per-query scan;
    returns its trace."""
    trace = assert_matches_dense_fold(monkeypatch, index, queries, days, **kwargs)
    assert_matches_reference(index, queries, days, **kwargs)
    return trace


class TestFirstBlockFloor:
    """A query's first shard folds through a floor its own block gives."""

    def test_exactly_2k_maxima_with_a_tie_at_the_2kth(self, monkeypatch):
        """Four categories (k = 2), the fourth maximum tied three ways.

        The floor is the 2k-th largest category maximum, 0.25: every tie
        at it is taken and the pool keeps the one inserted first.
        """
        entries = axis_entries([(3, "A"), (0, "A"), (1, "B"), (2, "C"), (3, "D"),
                                (9, "B"), (4, "C")])
        entries.insert(5, ([0.0, 3.0], 10.0, "D"))
        index = build(entries, alpha=0.0, k=2, window=100.0)
        trace = first_block(monkeypatch, index, [[0.0, 0.0]], [10.0])
        assert [floor.tolist() for floor in trace.block_floors] == [[0.25]]
        assert sorted(trace.taken[0].tolist()) == [0.25, 0.25, 0.25, 1 / 3, 0.5, 1.0]
        found, _, scan, _ = traced_search(monkeypatch, index, [[0.0, 0.0]], [10.0])
        assert [n.incident_id for n in found[0]] == ["i1", "i2"]
        assert scan.pool_seqs.tolist() == [[1, 2, 3, 0]]
        assert scan.kth_best.tolist() == [0.5]

    @pytest.mark.parametrize("diverse", [True, False])
    def test_a_shard_no_wider_than_2k(self, monkeypatch, diverse):
        """Five rows, k = 3: every finite cell is taken, the excluded one never."""
        index = build(axis_entries([(1, "A"), (2, "B"), (3, "A"), (4, "C"), (5, "B")]),
                      alpha=0.0, k=3, diverse=diverse, window=100.0)
        trace = first_block(monkeypatch, index, [[0.0, 0.0]], [10.0],
                            exclude_ids=[{"i2"}])
        assert [floor.tolist() for floor in trace.block_floors] == [[LOWEST]]
        assert sorted(trace.taken[0].tolist()) == [1 / 6, 1 / 5, 1 / 3, 1 / 2]

    def test_a_category_filter_naming_two_categories(self, monkeypatch):
        """Eight categories, two allowed (k = 2).

        The floor is the 4th largest allowed score (1/4) lowered to the
        smaller allowed maximum (1/7).  With fewer than four allowed cells
        left every one of them is taken, and no filtered one.
        """
        rows = [(0, "c1"), (6, "c2"), (1, "c1"), (2, "c1"), (12, "c2"), (3, "c1")]
        rows += [(10 + d, f"c{c}") for d, c in enumerate([0, 3, 4, 5, 6, 7] * 3)]
        index = build(axis_entries(rows), alpha=0.0, k=2, window=100.0)
        trace = first_block(monkeypatch, index, [[0.0, 0.0]], [10.0],
                            categories={"c1", "c2"})
        assert [floor.tolist() for floor in trace.block_floors] == [[1 / 7]]
        assert sorted(trace.taken[0].tolist()) == [1 / 7, 1 / 4, 1 / 3, 1 / 2, 1.0]
        trace = first_block(monkeypatch, index, [[0.0, 0.0]], [10.0],
                            categories={"c1", "c2"}, exclude_ids=[{"i2", "i3", "i4", "i5"}])
        assert [floor.tolist() for floor in trace.block_floors] == [[LOWEST]]
        assert sorted(trace.taken[0].tolist()) == [1 / 7, 1.0]

    def test_k_at_or_above_the_category_count(self, monkeypatch):
        """Three categories, k = 3: fewer maxima than 2k, so the floor is the
        6th largest score (1/6) lowered to the smallest maximum (1/9)."""
        rows = [(d, "c0") for d in range(4)] + [(d, "c1") for d in range(4, 8)]
        rows += [(d, "c2") for d in range(8, 12)]
        index = build(axis_entries(rows), alpha=0.0, k=3, window=100.0)
        trace = first_block(monkeypatch, index, [[0.0, 0.0]], [10.0])
        assert [floor.tolist() for floor in trace.block_floors] == [[1 / 9]]
        assert len(trace.taken[0]) == 9
        found, _, _, _ = traced_search(monkeypatch, index, [[0.0, 0.0]], [10.0])
        assert [n.incident_id for n in found[0]] == ["i0", "i4", "i8"]

    def test_every_cell_minus_inf(self, monkeypatch):
        """Every row of the query's own shard excluded: that block takes nothing."""
        entries = axis_entries([(d, f"c{d % 5}") for d in range(8)], day=30.0)
        entries += axis_entries([(d, f"c{d % 3}") for d in range(1, 7)], day=40.0)
        index = build(entries, alpha=0.1, k=2, window=5.0)
        trace = first_block(monkeypatch, index, [[0.0, 0.0]], [30.0],
                            exclude_ids=[{f"i{row}" for row in range(8)}])
        assert trace.block_floors[0].tolist() == [LOWEST]
        assert len(trace.block_floors) == 2 and len(trace.taken) == 1

    def test_diversity_off_ties_straddle_the_2kth_score(self, monkeypatch):
        """Four cells tie at the 4th largest score (k = 2): all are taken and
        the pool keeps the two inserted first."""
        entries = axis_entries([(3, "A"), (0, "A"), (3, "B"), (1, "A"), (3, "C"), (9, "A"),
                                (3, "A")])
        index = build(entries, alpha=0.0, k=2, diverse=False, window=100.0)
        trace = first_block(monkeypatch, index, [[0.0, 0.0]], [10.0])
        assert [floor.tolist() for floor in trace.block_floors] == [[0.25]]
        assert len(trace.taken[0]) == 6
        found, _, scan, _ = traced_search(monkeypatch, index, [[0.0, 0.0]], [10.0])
        assert [n.incident_id for n in found[0]] == ["i1", "i3"]
        assert scan.pool_seqs.tolist() == [[1, 3, 0, 2]]
