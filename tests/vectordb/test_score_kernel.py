"""The shared scoring kernel: one exact product per block.

Stored vectors are ``[x, |x|^2, 1]`` columns of a dim-major block and
queries ``[-2q, 1, |q|^2]`` rows, every component snapped to the 2^-20
grid, so ``score_block``'s one product is each pair's squared distance with
no rounding at all.  Three references pin that, each snapping its own
inputs:

* an integer one: a snapped component is an integer count of 2^-20, so a
  squared distance is an ``int64`` count of 2^-40, and the product must
  equal it exactly, up to norms just under the bound — also over a strided
  view of a wider buffer, the way a shard with spare capacity is scored,
  which must give its contiguous copy's bits;
* the pipeline the kernel replaced — the Gram expansion around a plain
  product, the cancellation guard, and one decay row per query in a second
  ``(Q, N)`` buffer — which on snapped inputs must give the same bits;
* the grid itself: ``snap`` is idempotent, and it refuses NaN, infinite
  and too-long vectors, which ``augment_queries`` names by row.

``scores_at_least``, which scores only the cells of a block that can
reach a floor, must keep exactly the cells the whole block's scores keep,
with their bits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectordb.scoring import (
    MAX_SQUARED_NORM,
    augment_queries,
    one_thread_product,
    score_block,
    scores_at_least,
    snap,
)

STEPS = 2**20  # grid steps per unit


def on_grid(vectors):
    return np.rint(np.asarray(vectors, dtype=np.float64) * STEPS) / STEPS


def store_block(matrix):
    """``matrix``'s rows as the ``(dim + 2, rows)`` dim-major block a shard scores."""
    block = np.empty((matrix.shape[1] + 2, matrix.shape[0]))
    assert snap(matrix, block) is None
    return block


def integer_squared_distances(query_matrix, matrix):
    """Each pair's squared distance from ``int64`` counts of the grid step."""
    units_m = np.rint(matrix * STEPS).astype(np.int64)
    units_q = np.rint(query_matrix * STEPS).astype(np.int64)
    gaps = units_q[:, None, :] - units_m[None, :, :]
    return (gaps * gaps).sum(axis=2).astype(np.float64) / float(STEPS) ** 2


def two_buffer_scores(matrix, row_days, queries, query_days, alpha):
    scores = one_thread_product(queries, matrix.T)
    scores *= -2.0
    scores += np.einsum("ij,ij->i", queries, queries)[:, None]
    scores += np.einsum("ij,ij->i", matrix, matrix)[None, :]
    np.maximum(scores, 0.0, out=scores)
    np.sqrt(scores, out=scores)
    scores += 1.0
    decay = row_days[None, :] - query_days[:, None]
    np.abs(decay, out=decay)
    decay *= -alpha
    np.exp(decay, out=decay)
    decay /= scores
    return decay


def hexes(array):
    return [value.hex() for value in array.ravel().tolist()]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 12),
    rows=st.integers(1, 60),
    dim=st.sampled_from([1, 3, 16, 64]),
    norm=st.sampled_from([1e-6, 1.0, 6.0, 45.0]),
)
def test_the_product_is_the_exact_squared_distance(seed, queries, rows, dim, norm):
    rng = np.random.default_rng(seed)

    def draw(count):
        vectors = rng.standard_normal((count, dim))
        return vectors * (norm / np.linalg.norm(vectors, axis=1, keepdims=True))

    matrix, query_matrix = draw(rows), draw(queries)
    matrix[0] = -query_matrix[0]  # the longest distance the bound allows
    expected = integer_squared_distances(query_matrix, matrix)
    product = one_thread_product(augment_queries(query_matrix), store_block(matrix))
    assert hexes(product) == hexes(expected)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 6),
    rows=st.integers(1, 400),
    spare=st.integers(1, 300),
    dim=st.sampled_from([1, 3, 16, 64]),
    norm=st.sampled_from([1e-6, 1.0, 6.0, 45.0]),
)
def test_a_strided_view_of_a_wider_buffer_scores_like_its_contiguous_copy(
    seed, queries, rows, spare, dim, norm
):
    """A shard scores ``buffer[:, :rows]`` of a buffer with spare capacity.

    The spare columns hold NaN, so a product that read past the view's
    columns would show it.  Each query row also scores its own bytes
    alone, so splitting a block by rows moves no score.
    """
    rng = np.random.default_rng(seed)

    def draw(count):
        vectors = rng.standard_normal((count, dim))
        return vectors * (norm / np.linalg.norm(vectors, axis=1, keepdims=True))

    matrix, query_matrix = draw(rows), draw(queries)
    matrix[0] = -query_matrix[0]
    buffer = np.full((dim + 2, rows + spare), np.nan)
    assert snap(matrix, buffer[:, :rows]) is None
    view = buffer[:, :rows]
    assert not view.flags.c_contiguous and view.base is buffer
    copy = np.ascontiguousarray(view)
    augmented = augment_queries(query_matrix)
    product = one_thread_product(augmented, view)
    assert hexes(product) == hexes(integer_squared_distances(query_matrix, matrix))
    assert hexes(product) == hexes(one_thread_product(augmented, copy))
    alone = [one_thread_product(augmented[row:row + 1], view) for row in range(queries)]
    assert product.tobytes() == np.concatenate(alone).tobytes()
    row_days = rng.uniform(0.0, 120.0, rows)
    query_days = rng.uniform(0.0, 120.0, queries)
    assert hexes(score_block(view, row_days, augmented, query_days, 0.3)) == hexes(
        score_block(copy, row_days, augmented, query_days, 0.3)
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 24),
    rows=st.integers(1, 700),
    day_pool=st.sampled_from([1, 2, 5, None]),
    alpha=st.sampled_from([0.0, 0.3, 1.7]),
)
def test_one_product_matches_the_gram_expansion_on_snapped_inputs(
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
    expected = two_buffer_scores(
        on_grid(matrix), row_days, on_grid(query_matrix), query_days, alpha
    )
    scores = score_block(
        store_block(matrix), row_days, augment_queries(query_matrix), query_days, alpha
    )
    assert scores.shape == expected.shape
    assert hexes(scores) == hexes(expected)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(1, 5),
    rows=st.integers(1, 300),
    dim=st.sampled_from([2, 3, 8]),
    alpha=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_scores_at_least_keeps_exactly_the_cells_at_or_above_the_floor(
    seed, queries, rows, dim, alpha
):
    """Whole-number vectors and days, so squared distances and day gaps tie
    often; each row's floor is one of its own cells' scores, so cells sit
    exactly at it, and its bound is the scan's, ``exp(-alpha dt_min)``.
    The cells kept and their bits are the whole block's."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-2, 3, (rows, dim)).astype(float)
    query_matrix = rng.integers(-2, 3, (queries, dim)).astype(float)
    row_days = rng.integers(0, 40, rows).astype(float)
    query_days = rng.integers(-5, 45, queries).astype(float)
    block, augmented = store_block(matrix), augment_queries(query_matrix)
    scores = score_block(block, row_days, augmented, query_days, alpha)
    floors = scores[np.arange(queries), rng.integers(0, rows, queries)]
    low, high = row_days.min(), row_days.max()
    inside = (low <= query_days) & (query_days <= high)
    gaps = np.where(inside, 0.0, np.minimum(np.abs(query_days - low), np.abs(query_days - high)))
    bounds = np.exp(-alpha * gaps)
    cells, taken = scores_at_least(
        one_thread_product(augmented, block), row_days, query_days, alpha, bounds, floors
    )
    expected = np.flatnonzero(scores >= floors[:, None])
    assert cells.tolist() == expected.tolist()
    assert hexes(taken) == hexes(scores.ravel()[expected])


def test_scores_at_least_needs_its_margin_at_squared_distance_two():
    """``(1 / s - 1)^2`` rounds to just below 2 for ``s = 1 / (1 + sqrt 2)``:
    the cell at squared distance 2 scores exactly the floor and is kept."""
    floor = 1.0 / (1.0 + math.sqrt(2.0))
    assert (1.0 / floor - 1.0) ** 2 < 2.0
    squared = np.array([[0.0, 1.0, 2.0, 3.0]])
    cells, taken = scores_at_least(
        squared, np.zeros(4), np.zeros(1), 0.3, np.ones(1), np.array([floor])
    )
    assert cells.tolist() == [0, 1, 2]
    assert hexes(taken) == hexes(np.array([1.0, 0.5, floor]))


def test_snap_writes_grid_columns_and_is_idempotent():
    rng = np.random.default_rng(4)
    vectors = rng.standard_normal((1200, 8)) * 3.0  # more than one snap step
    block = store_block(vectors)
    grid = on_grid(vectors)
    assert hexes(block[:8].T) == hexes(grid)
    assert hexes(block[8]) == hexes(np.einsum("ij,ij->i", grid, grid))
    assert (block[9] == 1.0).all()
    assert hexes(store_block(block[:8].T)) == hexes(block)
    picked = np.empty((10, 3))
    assert snap(vectors, picked, np.array([7, 0, 7])) is None
    assert hexes(picked) == hexes(block[:, [7, 0, 7]])


def test_augmented_queries_are_minus_two_q_one_and_the_squared_norm():
    query = np.array([[0.5, -1.25, 3.0]])
    assert augment_queries(query).tolist() == [[-1.0, 2.5, -6.0, 1.0, 10.8125]]
    assert augment_queries(np.zeros((0, 3))).shape == (0, 5)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, 1e100],
    ids=["nan", "inf", "-inf", "huge"],
)
def test_snap_refuses_non_finite_and_huge_vectors(value):
    vectors = np.ones((3, 4))
    vectors[1, 2] = value
    assert snap(vectors, np.empty((6, 3))) == 1
    with pytest.raises(ValueError, match="at query row 1$") as raised:
        augment_queries(vectors)
    finite = math.isfinite(value)
    assert raised.value.args[0].startswith("vector norm" if finite else "non-finite vector")


def test_the_bound_is_the_squared_norm_below_2_to_the_11():
    """4 |v|^2 2^40 < 2^53: a vector just past it is refused, one just short is not."""
    assert MAX_SQUARED_NORM == 2.0**11
    vectors = np.zeros((2, 2))
    vectors[0, 0] = math.sqrt(MAX_SQUARED_NORM) - 2.0**-20
    vectors[1, 0] = math.sqrt(MAX_SQUARED_NORM) + 2.0**-20
    assert snap(vectors, np.empty((4, 2))) == 1
