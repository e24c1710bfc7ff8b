"""The oracle against first principles, since every parity property trusts it.

``oracle.py`` scores with ``score_block`` and picks with
``select_complete_order``, the same pieces the sharded index uses.  These
tests check it without either: its scores against the scalar
``similarity`` formula, and its order, tie-breaking, filters and picks
against integer squared distances, a plain ``sorted`` and a greedy walk
written out here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import OracleIndex
from repro.vectordb import SimilarityConfig, similarity


def snapped(vector):
    """``vector`` on the scoring grid, 2^-20."""
    return np.rint(vector * 2.0**20) / 2.0**20


def test_scores_are_the_scalar_formula():
    rng = np.random.default_rng(4)
    vectors = rng.standard_normal((60, 5))
    days = rng.uniform(0.0, 50.0, 60)
    oracle = OracleIndex(SimilarityConfig(alpha=0.2, k=60, diverse_categories=False))
    oracle.add_many([f"i{row}" for row in range(60)], vectors, days, ["c"] * 60)
    query = rng.standard_normal(5)
    found = oracle.search(query, 30.0)
    assert sorted(n.incident_id for n in found) == sorted(f"i{row}" for row in range(60))
    for neighbor in found:
        row = int(neighbor.incident_id[1:])
        expected = similarity(snapped(query), snapped(vectors[row]), 30.0, days[row], alpha=0.2)
        assert neighbor.similarity == pytest.approx(expected, rel=1e-12)


@given(
    entries=st.lists(
        st.tuples(
            st.lists(st.integers(-2, 2), min_size=3, max_size=3),
            st.integers(0, 30),
            st.sampled_from("ABCD"),
        ),
        min_size=1,
        max_size=30,
    ),
    query=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    k=st.integers(1, 6),
    diverse=st.booleans(),
    cutoff=st.one_of(st.none(), st.integers(0, 31)),
    excluded=st.sets(st.integers(0, 29), max_size=4),
    allowed=st.one_of(st.none(), st.sets(st.sampled_from("ABCD"), min_size=1)),
)
@settings(max_examples=80, deadline=None)
def test_order_ties_filters_and_picks_follow_a_plain_sort(
    entries, query, k, diverse, cutoff, excluded, allowed
):
    """With alpha 0 the score falls as the integer squared distance grows."""
    oracle = OracleIndex(SimilarityConfig(alpha=0.0, k=k, diverse_categories=diverse))
    for row, (vector, day, category) in enumerate(entries):
        oracle.add(f"i{row}", np.array(vector, dtype=float), float(day), category)
    found = oracle.search(
        np.array(query, dtype=float), 10.0,
        exclude_ids={f"i{row}" for row in excluded},
        history_before_day=None if cutoff is None else float(cutoff),
        categories=allowed,
    )
    eligible = sorted(
        (sum((a - b) ** 2 for a, b in zip(vector, query)), row, category)
        for row, (vector, day, category) in enumerate(entries)
        if row not in excluded
        and (cutoff is None or day < cutoff)
        and (allowed is None or category in allowed)
    )
    firsts, fillers, seen = [], [], set()
    for _, row, category in eligible:
        if diverse and category in seen:
            fillers.append(row)
        else:
            firsts.append(row)
            seen.add(category)
    expected = (firsts + fillers)[:k] if diverse else [row for _, row, _ in eligible][:k]
    assert [n.incident_id for n in found] == [f"i{row}" for row in expected]
