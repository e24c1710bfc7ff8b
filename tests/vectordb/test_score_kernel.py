"""The shared scoring kernel against the two-buffer pipeline it replaced.

``score_block`` divides the temporal decay into the distance buffer in
place, computing one decay row when every query shares a day.  The pipeline it replaced —
one decay row per query in a second ``(Q, N)`` buffer, divided by the
distances — is kept here as the reference: the similarities must agree to
the bit for blocks whose queries share days, repeat some, or all differ.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.vectordb.scoring import one_thread_product, score_block


def two_buffer_scores(matrix, sq_norms, row_days, queries, query_days, alpha):
    scores = one_thread_product(queries, matrix)
    scores *= -2.0
    scores += np.einsum("ij,ij->i", queries, queries)[:, None]
    scores += sq_norms[None, :]
    np.maximum(scores, 0.0, out=scores)
    np.sqrt(scores, out=scores)
    scores += 1.0
    decay = row_days[None, :] - query_days[:, None]
    np.abs(decay, out=decay)
    decay *= -alpha
    np.exp(decay, out=decay)
    decay /= scores
    return decay


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 24),
    rows=st.integers(1, 700),
    day_pool=st.sampled_from([1, 2, 5, None]),
    alpha=st.sampled_from([0.0, 0.3, 1.7]),
)
def test_in_place_decay_matches_the_two_buffer_pipeline(
    seed, queries, rows, day_pool, alpha
):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, 16))
    query_matrix = rng.standard_normal((queries, 16))
    row_days = np.round(rng.uniform(0.0, 120.0, rows), 2)
    if day_pool is None:  # every query its own day
        query_days = rng.uniform(0.0, 120.0, queries)
    else:
        query_days = rng.choice(rng.uniform(0.0, 120.0, day_pool), queries)
    args = (
        matrix, np.einsum("ij,ij->i", matrix, matrix), row_days,
        query_matrix, query_days, alpha,
    )
    expected = two_buffer_scores(*args)
    scores = score_block(*args)
    assert scores.shape == expected.shape
    assert [value.hex() for value in scores.ravel().tolist()] == [
        value.hex() for value in expected.ravel().tolist()
    ]
