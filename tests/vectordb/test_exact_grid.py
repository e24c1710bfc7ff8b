"""Retrieval on the exact grid: a query's neighbours do not depend on its batch.

Stored vectors and queries are snapped to the 2^-20 grid, so every squared
distance is exact and no block shape can change a bit of a score.  The
differential below retrieves the same queries in a batch, one at a time, in
a permuted batch and as a subset (and, filtered, batched and alone), on the
brute-force oracle (``oracle.py``: the whole history scored as one matrix),
on a sharded index and on a sharded one whose shards compaction split
small — so each query meets blocks of many shapes — and compares
``(incident id, similarity.hex())`` lists, which must all be the oracle
batch's.  Before the grid, a 1-row gemv
and a gemm rounded differently and near-tied neighbours swapped.

Snapping is idempotent, so a snapshot whose segments hold unsnapped
vectors — as every snapshot written before the grid does — loads to the
bits of the index it came from.  Non-finite vectors and queries are refused,
naming the first bad id or query row; a refused batch leaves the index (and
each of its shards) as it was.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import OracleIndex
from repro.vectordb import ShardedVectorIndex, SimilarityConfig
from repro.vectordb.shardmem import map_segment, write_segment

BACKENDS = ("oracle", "sharded", "split")


@st.composite
def retrieval_cases(draw):
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        rows=draw(st.integers(1, 400)),
        queries=draw(st.integers(2, 20)),
        dim=draw(st.sampled_from([4, 16, 64])),
        categories=draw(st.integers(1, 12)),
        alpha=draw(st.sampled_from([0.0, 0.05, 0.4])),
        k=draw(st.integers(1, 6)),
        diverse=draw(st.booleans()),
        window=draw(st.sampled_from([3.0, 10.0, 40.0])),
        split=draw(st.integers(2, 48)),
    )


def unit_rows(rng, count, dim):
    """Rows of norm 6, the FastText document norm."""
    vectors = rng.standard_normal((count, dim))
    return 6.0 * vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def build(backend, case, vectors, days, categories):
    similarity = SimilarityConfig(alpha=case["alpha"], k=case["k"],
                                  diverse_categories=case["diverse"])
    if backend == "oracle":
        index = OracleIndex(similarity)
    else:
        index = ShardedVectorIndex(similarity, window_days=case["window"])
    index.add_many([f"i{row}" for row in range(len(days))], vectors, days, categories)
    if backend == "split":
        index.compact(min_entries=0, max_entries=case["split"])
    return index


def fingerprints(found):
    return [[(n.incident_id, float(n.similarity).hex()) for n in row] for row in found]


def case_data(rng, case):
    """A case's stored rows (vectors, days, categories) and its queries with their days."""
    rows, count, dim = case["rows"], case["queries"], case["dim"]
    vectors = unit_rows(rng, rows, dim)
    days = np.round(rng.uniform(0.0, 120.0, rows), 1).tolist()
    categories = [f"c{code}" for code in rng.integers(0, case["categories"], rows)]
    # Half the queries sit next to stored rows (near-ties), one repeats.
    near = vectors[rng.integers(0, rows, count)] + 0.05 * rng.standard_normal((count, dim))
    queries = np.where(rng.random((count, 1)) < 0.5, near, unit_rows(rng, count, dim))
    queries[-1] = queries[0]
    query_days = rng.uniform(-10.0, 130.0, count)
    query_days[-1] = query_days[0]
    return vectors, days, categories, queries, query_days


def check_case(case):
    rng = np.random.default_rng(case["seed"])
    vectors, days, categories, queries, query_days = case_data(rng, case)
    count = case["queries"]
    permutation = rng.permutation(count)
    subset = np.flatnonzero(rng.random(count) < 0.5)
    expected = None
    for backend in BACKENDS:
        index = build(backend, case, vectors, days, categories)
        batch = fingerprints(index.search_many(queries, query_days))
        if expected is None:
            expected = batch
        assert batch == expected, backend
        alone = [
            fingerprints(index.search_many(queries[row : row + 1], query_days[row : row + 1]))[0]
            for row in range(count)
        ]
        assert alone == expected, backend
        permuted = fingerprints(index.search_many(queries[permutation], query_days[permutation]))
        assert [permuted[list(permutation).index(row)] for row in range(count)] == expected
        if subset.shape[0]:
            part = fingerprints(index.search_many(queries[subset], query_days[subset]))
            assert part == [expected[row] for row in subset], backend


@settings(max_examples=25, deadline=None)
@given(case=retrieval_cases())
def test_a_query_retrieves_the_same_bits_in_any_batch_on_any_layout(case):
    check_case(case)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(case=retrieval_cases())
def test_a_query_retrieves_the_same_bits_in_any_batch_on_any_layout_nightly(case):
    check_case(case)


@settings(max_examples=25, deadline=None)
@given(case=retrieval_cases(), cut=st.floats(0.0, 130.0), kept=st.integers(1, 12),
       dropped=st.integers(0, 6))
def test_filtered_searches_retrieve_the_same_bits_on_any_layout(case, cut, kept, dropped):
    """Exclusions, a look-ahead cut-off and a category filter, batched and alone."""
    rng = np.random.default_rng(case["seed"])
    vectors, days, categories, queries, query_days = case_data(rng, case)
    excludes = [{f"i{row}" for row in rng.integers(0, case["rows"], dropped)}
                for _ in range(case["queries"])]
    filters = dict(history_before_day=cut, categories={f"c{code}" for code in range(kept)})
    expected = None
    for backend in BACKENDS:
        index = build(backend, case, vectors, days, categories)
        found = index.search_many(queries, query_days, exclude_ids=excludes, **filters)
        batch = fingerprints(found)
        expected = batch if expected is None else expected
        assert batch == expected, backend
        alone = [
            fingerprints(index.search_many(queries[row : row + 1], query_days[row : row + 1],
                                           exclude_ids=excludes[row : row + 1], **filters))[0]
            for row in range(case["queries"])
        ]
        assert alone == expected, backend


# -------------------------------------------------------------------- loading
def test_unsnapped_segments_load_to_the_bits_of_the_live_index(tmp_path):
    rng = np.random.default_rng(8)
    ids = [f"i{row}" for row in range(300)]
    vectors = unit_rows(rng, 300, 16)
    days = rng.uniform(0.0, 90.0, 300).tolist()
    live = ShardedVectorIndex(SimilarityConfig(alpha=0.05), window_days=10.0)
    live.add_many(ids, vectors, days, [f"c{code}" for code in rng.integers(0, 7, 300)])
    live.save(tmp_path)
    # Rewrite every segment the way a tree without the grid wrote it: the
    # raw vectors and their norms, each in the row its id holds.
    raw = dict(zip(ids, vectors))
    with open(tmp_path / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for meta in manifest["shards"]:
        path = str(tmp_path / meta["segment"])
        views, blob = map_segment(path, meta["rows"], meta["dim"])
        matrix = np.array([raw[incident_id] for incident_id in json.loads(blob)[0]])
        arrays = {"matrix": matrix, "sq_norms": np.einsum("ij,ij->i", matrix, matrix),
                  "days": np.array(views["days"]), "seqs": np.array(views["seqs"])}
        del views
        write_segment(path + ".raw", arrays, bytes(blob))
        os.replace(path + ".raw", path)
    loaded = ShardedVectorIndex.load(tmp_path, similarity=SimilarityConfig(alpha=0.05))
    assert sorted(loaded.shard_sizes()) == sorted(live.shard_sizes())
    for key, shard in live._shards.items():  # noqa: SLF001
        reloaded = loaded._shards[key]  # noqa: SLF001
        assert reloaded.data().block.tobytes() == shard.data().block.tobytes()
    queries = unit_rows(rng, 8, 16)
    query_days = rng.uniform(0.0, 90.0, 8)
    assert fingerprints(loaded.search_many(queries, query_days)) == fingerprints(
        live.search_many(queries, query_days)
    )


# ------------------------------------------------------------------ rejection
def make_index(window_days=5.0):
    index = ShardedVectorIndex(window_days=window_days)
    index.add_many(["a", "b"], np.eye(2, 4), [1.0, 2.0], ["x", "y"])
    return index


def index_state(index):
    return (
        len(index), index.categories(),
        [(e.incident_id, e.category, e.created_day, e.vector.tolist())
         for e in map(index.get, ("a", "b"))],
        index.stats(), list(index._ranges), index.shard_sizes(),  # noqa: SLF001
        index._next_shard_key, dict(index._cat_code),  # noqa: SLF001
    )


@pytest.mark.parametrize("window_days", [5.0, 1000.0], ids=["shards", "one_shard"])
@pytest.mark.parametrize(
    "value, message",
    [(math.nan, "non-finite vector"), (math.inf, "non-finite vector"),
     (-math.inf, "non-finite vector"), (1e3, "vector norm 1000 is not below")],
    ids=["nan", "inf", "-inf", "too long"],
)
def test_a_refused_vector_names_the_first_id_and_leaves_the_index_as_it_was(
    value, message, window_days
):
    index = make_index(window_days)
    before = index_state(index)
    vectors = np.ones((4, 4))
    vectors[2, 1] = vectors[3, 0] = value
    # In 5-day shards, days that open shards before and after the refused
    # rows; in one shard, every row lands beside the stored ones.  One new
    # category either way.
    with pytest.raises(ValueError, match=f"^{message}.* in vector store: e$"):
        index.add_many(["c", "d", "e", "f"], vectors, [30.0, 1.5, 60.0, 2.5], ["z", "x", "y", "w"])
    with pytest.raises(ValueError, match=f"^{message}.* in vector store: g$"):
        index.add("g", vectors[3], 9.0, "x")
    assert index_state(index) == before
    index.add_many(["c"], np.ones((1, 4)), [30.0], ["z"])  # still usable
    assert len(index) == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_query_names_its_row(value):
    index = make_index()
    queries = np.ones((3, 4))
    queries[1, 3] = value
    with pytest.raises(ValueError, match="^non-finite vector at query row 1$"):
        index.search_many(queries, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^non-finite vector at query row 0$"):
        index.search(queries[1], 2.0)
    assert [n.incident_id for n in index.search(queries[0], 1.0)] == ["a", "b"]


@pytest.mark.parametrize(
    "value, message", [(math.nan, "non-finite vector"), (1e3, "vector norm 1000 is not below")],
    ids=["nan", "too long"],
)
def test_a_refused_first_batch_leaves_an_index_without_a_shape(value, message):
    index = ShardedVectorIndex()
    with pytest.raises(ValueError, match=f"^{message}.* in vector store: a$"):
        index.add("a", np.array([value, 1.0, 2.0]), 1.0, "x")
    assert index.dim is None and index.shard_sizes() == {}
    index.add("a", np.ones(5), 1.0, "x")
    assert index.dim == 5 and index.get("a").vector.shape == (5,)
