"""The sharded index's columnar shards and their block write path.

A shard keeps its rows as columns — ``[x, |x|^2, 1]`` columns of a
dim-major block, days, sequences and category codes as arrays, ids and
texts as lists — and builds a ``VectorEntry`` only when one is asked for;
``ShardedVectorIndex.add_many`` routes a batch in one pass and compaction
moves whole blocks of rows.  None of that may show from outside:

* **routing** — batch routing lands every row where routing one row at a
  time would, including rows behind a shard the same batch opened, and
  leaves each shard the rows (to the bit), days, sequences, category names,
  ids and texts row-at-a-time inserts leave, fresh, compacted and reloaded;
* **bytes** — a scripted add/relabel/compact/save/reload sequence leaves
  the snapshot directory, search results and ``stats()`` pinned below
  (see the pins for when they were taken);
* **atomicity** — a rejected batch (a duplicate id, a non-finite day)
  leaves every shard untouched and names the first offending id;
* **write-through** — a relabel or an add after ``load`` changes no file
  of the snapshot it came from;
* **objects** — building an index leaves no GC-tracked object per row;
* **snapshots** — an entry is built on demand: ``get`` after a relabel
  shows the new category, a neighbour returned before it keeps the old one.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectordb import (
    CompactionPolicy,
    ShardedVectorIndex,
    SimilarityConfig,
)

DIM = 6
WINDOW = 5.0


# --------------------------------------------------------------- reference
def reference_route(index, days):
    """Route one row at a time, as inserts did before batch routing.

    A recorded range covering the day wins; otherwise the day's shard is
    opened, which changes the ranges the next row is routed against.
    """
    keys = []
    for day in map(float, days):
        ranges = index._ranges  # noqa: SLF001
        position = bisect.bisect_right([start for start, _, _ in ranges], day) - 1
        if position >= 0 and ranges[position][0] <= day < ranges[position][1]:
            keys.append(ranges[position][2])
        else:
            keys.append(index._open_shard(day).key)  # noqa: SLF001
    return keys


def shard_columns(index):
    """Per shard: its block's bytes, days, int64 seqs, category names, ids and texts.

    Names go through the code table, whose numbering may legitimately
    differ between indices built by different calls.
    """
    names = {code: name for name, code in index._cat_code.items()}  # noqa: SLF001
    columns = {}
    for key, shard in index._shards.items():  # noqa: SLF001
        data = shard.data()
        assert data.seqs.dtype == data.codes.dtype == np.int64
        labels = [names[code] for code in data.codes.tolist()]
        assert labels == [index.get(incident_id).category for incident_id in shard.ids]
        columns[key] = (
            data.block.tobytes(), data.days.tolist(), data.seqs.tolist(), labels,
            shard.ids, shard.texts,
        )
    return columns


def layout(index):
    """Routing state two indices built by the same calls must share."""
    return (
        list(index._ranges),  # noqa: SLF001
        index.shard_sizes(),
        index._next_shard_key,  # noqa: SLF001
    )


# --------------------------------------------------------------- scripted run
def scripted_run(directory):
    """25 waves of inserts, relabels, compactions, saves and one reload.

    Batch days reach back into old windows while the newest ones drift
    forward, so most batches open shards between rows that land in
    existing (and, after compaction, merged or split) shards.  New
    categories appear both through inserts and through relabels.
    """
    rng = np.random.default_rng(28)
    similarity = SimilarityConfig(alpha=0.15, k=4)
    policy = CompactionPolicy(min_entries=6, max_entries=30, auto=True, check_every=40)
    index = ShardedVectorIndex(similarity, window_days=WINDOW, compaction=policy)
    queries = rng.standard_normal((6, DIM))
    query_days = [-12.0, 0.0, 17.5, 40.0, 75.0, 150.0]
    produced = []
    inserted = 0
    for wave in range(25):
        count = int(rng.integers(1, 48))
        days = np.round(rng.uniform(-20.0, 8.0 + 6.0 * wave, size=count), 1)
        ids = [f"inc-{inserted + row}" for row in range(count)]
        categories = [f"cat{code}" for code in rng.integers(0, 4 + wave // 3, size=count).tolist()]
        index.add_many(
            ids, rng.standard_normal((count, DIM)), days.tolist(), categories,
            texts=[f"summary of {incident_id} – wave {wave}" for incident_id in ids],
        )
        inserted += count
        index.add(f"inc-{inserted}", rng.standard_normal(DIM), float(days[0]), "cat0")
        inserted += 1
        for target, code in zip(
            rng.integers(0, inserted, size=3).tolist(),
            rng.integers(0, 6 + wave // 2, size=3).tolist(),
        ):
            index.update_category(f"inc-{target}", f"cat{code}")
        if wave % 8 == 7:
            index.compact(min_entries=10, max_entries=25)
        if wave % 3 == 2:
            index.save(directory)
        if wave == 13:
            index.save(directory)
            index = ShardedVectorIndex.load(directory, similarity=similarity, compaction=policy)
        found = index.search_many(queries, query_days)
        produced.append(
            [[(n.incident_id, n.category, n.similarity.hex()) for n in row] for row in found]
        )
    index.save(directory)
    return index, produced


def directory_sha256(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def results_sha256(index, produced):
    state = {
        "produced": produced,
        "stats": index.stats(),
        "categories": index.categories(),
        "shard_sizes": sorted(index.shard_sizes().items()),
        "code_table": sorted(index._cat_code.items(), key=lambda item: item[1]),  # noqa: SLF001
        "ranges": index._ranges,  # noqa: SLF001
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()


#: sha256 of the scripted run's snapshot directory (file names and bytes)
#: and of its search results, ``stats()``, layout and category code table.
#: Taken once vectors were snapped to the 2^-20 scoring grid: stored vectors
#: moved by at most 2^-21 per component and similarities by ~3e-7 relative,
#: while every neighbour id, category, ``stats()`` value, layout and code
#: table stayed what the tree that built one ``VectorEntry`` per stored row
#: produced.
SNAPSHOT_SHA256 = "443a31ae320624c84f55d4dbf7a43453e63ebe03bdc1cfd2f988b54b90bdacfc"
RESULTS_SHA256 = "5d89758ef3eb08a414af95f7daca35a2d2c664a6e528a727fff1cafaa0f7b931"


def prior_index(days, compact):
    """A sharded index over ``days``, optionally compacted into uneven ranges."""
    index = ShardedVectorIndex(window_days=WINDOW)
    if days:
        index.add_many(
            [f"p{row}" for row in range(len(days))],
            np.ones((len(days), DIM)),
            days,
            [f"c{row % 3}" for row in range(len(days))],
        )
    if compact:
        index.compact(min_entries=2, max_entries=4)
    return index


HALF_DAYS = st.integers(-60, 120).map(lambda half_days: half_days / 2.0)


class TestBatchRouting:
    @settings(max_examples=80, deadline=None)
    @given(
        prior=st.lists(HALF_DAYS, max_size=30),
        compact=st.booleans(),
        batch=st.lists(HALF_DAYS, min_size=1, max_size=40),
    )
    def test_batch_routing_matches_row_at_a_time(self, prior, compact, batch):
        reference, batched = prior_index(prior, compact), prior_index(prior, compact)
        expected = reference_route(reference, batch)
        assert batched._route(np.asarray(batch)).tolist() == expected  # noqa: SLF001
        assert layout(batched) == layout(reference)

    def test_a_shard_opened_mid_batch_takes_the_rows_behind_it(self):
        reference, batched = prior_index([0.5], False), prior_index([0.5], False)
        batch = [7.0, 1.0, 8.0, 22.0, 9.5, 23.0, 4.0]
        expected = reference_route(reference, batch)
        assert expected == [1, 0, 1, 4, 1, 4, 0]
        assert batched._route(np.asarray(batch)).tolist() == expected  # noqa: SLF001
        assert layout(batched) == layout(reference)

    @pytest.mark.parametrize(
        "count, day_low, day_high",
        [(200, -30.0, 60.0), (40, 40.0, 44.9), (40, 1.0, 4.0), (1, 33.0, 33.0)],
        ids=["many shards", "one new shard", "one compacted shard", "one row"],
    )
    def test_batch_insert_matches_row_at_a_time_insert(
        self, tmp_path, count, day_low, day_high
    ):
        rng = np.random.default_rng(5)
        days = np.round(rng.uniform(day_low, day_high, size=count), 1).tolist()
        vectors = rng.standard_normal((count, DIM))
        ids = [f"r{row}" for row in range(count)]
        categories = [f"c{code}" for code in rng.integers(0, 9, size=count).tolist()]
        batched, single = prior_index([0.0, 12.0], True), prior_index([0.0, 12.0], True)
        batched.add_many(ids, vectors, days, categories)
        for row in range(count):
            single.add(ids[row], vectors[row], days[row], categories[row])

        def assert_same(batched, single):
            assert layout(batched) == layout(single)
            assert shard_columns(batched) == shard_columns(single)
            found, expected = (
                index.search_many(vectors[:8], days[:8]) for index in (batched, single)
            )
            assert [[(n.incident_id, n.similarity.hex()) for n in row] for row in found] == [
                [(n.incident_id, n.similarity.hex()) for n in row] for row in expected
            ]

        assert_same(batched, single)
        for index in (batched, single):
            index.compact(min_entries=10, max_entries=40)
        assert_same(batched, single)
        batched.save(tmp_path / "batched")
        single.save(tmp_path / "single")
        assert_same(
            ShardedVectorIndex.load(tmp_path / "batched"),
            ShardedVectorIndex.load(tmp_path / "single"),
        )


class TestScriptedSequence:
    def test_snapshot_results_and_stats_are_the_pinned_ones(self, tmp_path):
        index, produced = scripted_run(str(tmp_path))
        assert directory_sha256(str(tmp_path)) == SNAPSHOT_SHA256
        assert results_sha256(index, produced) == RESULTS_SHA256
        with open(tmp_path / "manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["version"] == 4


def index_state(index):
    return (
        layout(index),
        index.stats(),
        dict(index._cat_code),  # noqa: SLF001
        index._next_seq,  # noqa: SLF001
        sorted(
            (key, [(e.incident_id, e.category, e.created_day) for e in map(index.get, shard.ids)])
            for key, shard in index._shards.items()  # noqa: SLF001
        ),
    )


class TestRejectedBatch:
    @pytest.mark.parametrize(
        "ids, offending",
        [
            (["new-0", "new-1", "new-0", "new-2"], "new-0"),
            (["new-0", "old-3", "new-0", "new-2"], "old-3"),
            (["new-0", "new-0", "old-3", "new-2"], "new-0"),
        ],
        ids=["within the batch", "against the index", "within the batch first"],
    )
    def test_a_rejected_batch_leaves_every_shard_untouched(self, ids, offending):
        index = ShardedVectorIndex(window_days=WINDOW)
        index.add_many(
            [f"old-{row}" for row in range(6)], np.eye(6), [0.0, 1.0, 2.0, 6.0, 7.0, 8.0],
            ["a", "b", "a", "b", "a", "b"],
        )
        before = index_state(index)
        # Two of the rows would open shards, one brings a new category.
        with pytest.raises(ValueError, match=f"duplicate incident id in vector store: {offending}$"):
            index.add_many(ids, np.ones((4, 6)), [100.0, 3.0, 200.0, 7.5], ["z", "a", "b", "a"])
        assert index_state(index) == before
        assert len(index) == 6

    @pytest.mark.parametrize("single", [False, True], ids=["add_many", "add"])
    @pytest.mark.parametrize("bad_day", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_day_leaves_every_shard_untouched(self, bad_day, single):
        index = ShardedVectorIndex(window_days=WINDOW)
        index.add("a", np.ones(6), 1.0, "x")
        before = index_state(index)
        with pytest.raises(ValueError, match="non-finite creation day in vector store: c$"):
            if single:
                index.add("c", np.ones(6), bad_day, "z")
            else:
                # The first row would open a shard, the second one brings a new category.
                index.add_many(["b", "c"], np.ones((2, 6)), [30.0, bad_day], ["x", "z"])
        assert index_state(index) == before
        assert index.shard_sizes() == {0: 1}


# ---------------------------------------------------------- load write-through
def test_a_relabel_or_an_add_after_load_never_writes_through(tmp_path):
    rng = np.random.default_rng(3)
    index = ShardedVectorIndex(window_days=WINDOW)
    index.add_many(
        [f"a{row}" for row in range(30)], rng.standard_normal((30, DIM)),
        np.linspace(0.0, 14.5, 30).tolist(), [f"c{row % 3}" for row in range(30)],
    )
    index.save(tmp_path)

    def files():
        return {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}

    saved = files()
    loaded = ShardedVectorIndex.load(tmp_path)
    # One relabel in a shard that then takes a row, one in a shard that does not.
    loaded.update_category("a1", "relabelled")
    loaded.update_category("a29", "relabelled")
    loaded.add("new", rng.standard_normal(DIM), 2.0, "c0")
    loaded.search_many(rng.standard_normal((2, DIM)), [1.0, 12.0])
    assert loaded.get("a1").category == loaded.get("a29").category == "relabelled"

    again = ShardedVectorIndex.load(tmp_path)
    assert (again.get("a1").category, again.get("a29").category) == ("c1", "c2")
    assert len(again) == 30 and "new" not in again
    assert files() == saved

    loaded.save(tmp_path)
    reloaded = ShardedVectorIndex.load(tmp_path)
    assert reloaded.get("a1").category == reloaded.get("a29").category == "relabelled"
    assert len(reloaded) == 31 and reloaded.get("new").created_day == 2.0
    assert shard_columns(reloaded) == shard_columns(loaded)


# ------------------------------------------------------------------ objects
def objects_grown_by_building(window_days, total):
    """GC-tracked objects an index of ``total`` rows leaves behind."""
    rng = np.random.default_rng(total)
    ids = [f"row-{row}" for row in range(total)]
    vectors = rng.standard_normal((total, 8))
    days = rng.uniform(0.0, 100.0, size=total).tolist()
    categories = [f"c{row % 20}" for row in range(total)]
    gc.collect()
    before = len(gc.get_objects())
    index = ShardedVectorIndex(window_days=window_days)
    for start in range(0, total, 2_500):
        stop = start + 2_500
        index.add_many(ids[start:stop], vectors[start:stop], days[start:stop], categories[start:stop])
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(index) == total
    return grown


@pytest.mark.parametrize("window_days", [7.0, 1000.0], ids=["weekly_shards", "one_shard"])
def test_building_an_index_leaves_no_object_per_row(window_days):
    objects_grown_by_building(window_days, 1_000)  # first-call imports and caches
    grown = {total: objects_grown_by_building(window_days, total) for total in (10_000, 40_000)}
    assert grown[40_000] <= grown[10_000], grown


# ---------------------------------------------------------------- snapshots
class TestEntriesAreSnapshots:
    @pytest.mark.parametrize("window_days", [30.0, 1.0], ids=["one_shard", "three_shards"])
    def test_get_follows_a_relabel_and_a_returned_neighbour_does_not(self, window_days):
        index = ShardedVectorIndex(SimilarityConfig(alpha=0.1, k=3), window_days=window_days)
        index.add_many(
            ["a", "b", "c"], np.eye(3), [1.0, 2.0, 3.0], ["disk", "network", "auth"],
            texts=["A", "B", "C"],
        )
        held = {n.incident_id: n for n in index.search(np.eye(3)[0], 2.0)}
        index.update_category("a", "memory")
        assert index.get("a").category == "memory"
        assert held["a"].category == "disk"
        assert held["a"].entry.category == "disk"
        assert {n.incident_id: n.category for n in index.search(np.eye(3)[0], 2.0)}["a"] == "memory"

    @pytest.mark.parametrize("window_days", [30.0, 1.0], ids=["one_shard", "three_shards"])
    def test_entry_builds_the_row_on_demand(self, window_days):
        index = ShardedVectorIndex(window_days=window_days)
        vectors = np.arange(6.0).reshape(3, 2)
        index.add_many(["a", "b"], vectors[:2], [1.5, 2.5], ["x", "y"], texts=["A", "B"])
        index.add("c", vectors[2], 3, "x")
        entry = index.get("b")
        assert (entry.incident_id, entry.created_day, entry.category, entry.text) == (
            "b", 2.5, "y", "B"
        )
        np.testing.assert_array_equal(entry.vector, vectors[1])
        assert index.get("c").created_day == 3.0 and index.get("c").text == ""
        assert index.get("b") is not index.get("b")

    def test_add_checks_like_add_many(self):
        index = ShardedVectorIndex(window_days=WINDOW)
        index.add("z", np.ones(2), 0.0, "x")
        with pytest.raises(ValueError, match="vector dimension 3 does not match store dimension 2"):
            index.add("a", np.ones(3), 0.0, "x")
        index.add("a", np.ones((1, 2)), 0.0, "x")
        with pytest.raises(ValueError, match="duplicate incident id in vector store: a"):
            index.add("a", np.ones(2), 0.0, "x")
        assert len(index) == 2
