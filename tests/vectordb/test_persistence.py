"""Persistence of the sharded index (manifest v4): segments under one commit point.

Three properties of ``ShardedVectorIndex.save`` / ``load``:

* **crash consistency** — a save that dies at *any* write-side I/O call
  leaves a directory that loads as the snapshot before it or the snapshot
  after it, never as corruption, and the next save sweeps the debris;
* **proportionality** — a save writes a segment only for shards whose rows
  changed since the index last saved to (or loaded from) that directory;
* **fidelity** — whatever interleaving of inserts, relabels, compactions,
  saves and reloads came before, the directory loads equal to the live
  index.

Small indices throughout: the file runs in tier-1 and carries no ``slow``
marker.
"""

from __future__ import annotations

import builtins
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectordb import ShardedVectorIndex, SimilarityConfig, load_index
from repro.vectordb import shardmem

DIM = 4
WINDOW = 10.0
SIMILARITY = SimilarityConfig(alpha=0.3, k=4)
QUERIES = np.random.default_rng(77).standard_normal((5, DIM))
QUERY_DAYS = [-25.0, 3.0, 31.0, 55.0, 90.0]


def entries(start, count, day_lo, day_hi, seed=0):
    """``add_many`` arguments for ids ``e<start>`` .. ``e<start+count-1>``."""
    rng = np.random.default_rng([seed, start])
    return dict(
        incident_ids=[f"e{start + offset}" for offset in range(count)],
        vectors=rng.standard_normal((count, DIM)),
        created_days=rng.uniform(day_lo, day_hi, size=count).tolist(),
        categories=[f"cat{(start + offset) % 5}" for offset in range(count)],
        texts=[f"text {start + offset} é" for offset in range(count)],
    )


def snapshot(index):
    """Everything a reload must reproduce, as one comparable value."""
    found = index.search_many(QUERIES, QUERY_DAYS)
    return {
        "neighbours": [
            [(n.incident_id, n.similarity) for n in row] for row in found
        ],
        "entries": sorted(
            (entry.incident_id, entry.category, entry.text, entry.created_day)
            for shard in index._shards.values()  # noqa: SLF001
            for entry in map(index.get, shard.ids)
        ),
        "shard_sizes": index.shard_sizes(),
        "ranges": list(index._ranges),  # noqa: SLF001
        "next_seq": index._next_seq,  # noqa: SLF001
        "next_shard_key": index._next_shard_key,  # noqa: SLF001
        "categories": index.categories(),
    }


def row_buffer(shard):
    """A shard's private ``[x, |x|^2, 1]`` buffer: None until its rows are read."""
    return shard._buffer  # noqa: SLF001


def read_manifest(directory):
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


def assert_clean(directory):
    """The directory holds the manifest and exactly the files it names."""
    manifest = read_manifest(directory)
    named = [meta["segment"] for meta in manifest["shards"]]
    assert sorted(os.listdir(directory)) == sorted(
        ["manifest.json", manifest["codes"], *named]
    )


def file_identities(directory):
    """name -> (inode, size, mtime_ns) of every file in ``directory``."""
    return {
        entry.name: (entry.inode(), entry.stat().st_size, entry.stat().st_mtime_ns)
        for entry in os.scandir(directory)
    }


def segment_of(directory, key):
    (meta,) = [m for m in read_manifest(directory)["shards"] if m["key"] == key]
    return meta["segment"]


# --------------------------------------------------------------- crash matrix
class InjectedFault(OSError):
    """The N-th write-side I/O call of a save 'killed the process'."""


class FaultPlan:
    """Counts the write-side primitives ``save`` uses; fails the N-th.

    Patched: ``open(..., "wb")`` and every ``write`` on the handle it
    returns (as seen from :mod:`repro.vectordb.shardmem`, the only module
    that writes), ``os.fsync``, ``os.replace`` and ``os.unlink``.  A call
    that fails does nothing, like a process killed just before it.
    """

    def __init__(self, monkeypatch, fail_at):
        self.fail_at = fail_at
        self.calls = 0
        self.steps = []
        self.replaced = False
        for name in ("fsync", "replace", "unlink"):
            monkeypatch.setattr(os, name, self._guard(name, getattr(os, name)))
        monkeypatch.setattr(shardmem, "open", self._open, raising=False)

    def _step(self, name):
        self.calls += 1
        self.steps.append(name)
        if self.calls == self.fail_at:
            raise InjectedFault(f"injected fault at step {self.calls} ({name})")

    def _guard(self, name, real):
        def guarded(*args, **kwargs):
            self._step(name)
            result = real(*args, **kwargs)
            if name == "replace":
                self.replaced = True
            return result

        return guarded

    def _open(self, path, mode="r", *args, **kwargs):
        if "w" not in mode:
            return builtins.open(path, mode, *args, **kwargs)
        self._step("open")
        return _FaultyHandle(builtins.open(path, mode, *args, **kwargs), self)


class _FaultyHandle:
    def __init__(self, handle, plan):
        self._handle, self._plan = handle, plan

    def write(self, chunk):
        self._plan._step("write")
        return self._handle.write(chunk)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)


def crash_scenario(directory):
    """An index with a committed snapshot in ``directory``, then mutated.

    Returns the mutated (unsaved) index.  The mutation covers every kind of
    change a save must carry: appended rows (head shard and a brand-new
    one), a relabel in an untouched shard, and a compaction that splits one
    shard and merges others away.
    """
    index = ShardedVectorIndex(SIMILARITY, window_days=WINDOW)
    index.add_many(**entries(0, 60, 0.0, 50.0))
    index.add_many(**entries(60, 40, 20.0, 30.0))
    index.save(directory)
    index.add_many(**entries(100, 12, 45.0, 65.0))
    index.update_category("e3", "Relabelled")
    index.compact(min_entries=10, max_entries=30)
    return index


class TestCrashAtEveryStep:
    def test_directory_loads_old_or_new_after_a_fault_at_any_io_call(
        self, tmp_path, monkeypatch
    ):
        reference = str(tmp_path / "reference")
        mutated = crash_scenario(reference)
        old = snapshot(load_index(reference, similarity=SIMILARITY))
        new = snapshot(mutated)
        assert old != new

        fail_at = 0
        outcomes = set()
        while True:
            fail_at += 1
            directory = str(tmp_path / f"crash-{fail_at}")
            index = crash_scenario(directory)
            with monkeypatch.context() as patch:
                plan = FaultPlan(patch, fail_at)
                try:
                    index.save(directory)
                    faulted = False
                except InjectedFault:
                    faulted = True
            # The 'restarted process': loads straight from the directory,
            # never through load_index_resilient's rebuild rung.
            survivor = load_index(directory, similarity=SIMILARITY)
            expected = new if plan.replaced else old
            assert snapshot(survivor) == expected, (fail_at, plan.steps[-1])
            outcomes.add(plan.replaced)
            # A restarted process saving onto the crashed directory, then the
            # original index saving again, each leave a clean directory.
            survivor.save(directory)
            assert_clean(directory)
            assert snapshot(load_index(directory, similarity=SIMILARITY)) == expected
            index.save(directory)
            assert_clean(directory)
            assert snapshot(load_index(directory, similarity=SIMILARITY)) == new
            if not faulted:
                break
        # The matrix really covered both sides of the commit point and every
        # kind of primitive.
        assert outcomes == {False, True}
        assert set(plan.steps) == {"open", "write", "fsync", "replace", "unlink"}
        assert plan.steps.count("replace") == 1
        assert fail_at == len(plan.steps) + 1

    def test_io_steps_run_in_commit_order(self, tmp_path, monkeypatch):
        """Segments and codes are durable before the manifest is replaced,
        and nothing is unlinked before it."""
        directory = str(tmp_path / "ordered")
        index = crash_scenario(directory)
        with monkeypatch.context() as patch:
            plan = FaultPlan(patch, fail_at=0)
            index.save(directory)
        commit = plan.steps.index("replace")
        assert plan.steps[commit - 1] == "fsync"  # manifest.json.tmp
        assert plan.steps[commit + 1] == "fsync"  # the directory
        assert set(plan.steps[commit + 2 :]) == {"unlink"}
        assert "unlink" not in plan.steps[:commit]
        # One fsync per file written plus the directory's.
        assert plan.steps.count("fsync") == plan.steps.count("open") + 1


# ------------------------------------------------------------ proportionality
class TestProportionalSaves:
    def build(self):
        index = ShardedVectorIndex(SIMILARITY, window_days=WINDOW)
        index.add_many(**entries(0, 80, 0.0, 60.0))
        return index

    def test_second_save_writes_only_what_changed(self, tmp_path):
        directory = str(tmp_path / "index")
        index = self.build()
        index.save(directory)
        assert_clean(directory)
        shards = len(index.shard_sizes())
        first = file_identities(directory)
        contents = {
            name: open(os.path.join(directory, name), "rb").read() for name in first
        }
        stats = index.stats()
        assert stats["saves"] == 1.0
        assert stats["save_shards_written"] == float(shards)
        assert stats["save_bytes_written"] == float(
            sum(size for _, size, _ in first.values())
        )

        head = max(index.shard_sizes())
        index.add_many(**entries(80, 3, 55.0, 60.0))
        assert max(index.shard_sizes()) == head
        index.update_category("e0", "Relabelled")
        assert index._locator["e0"] != head  # noqa: SLF001
        index.save(directory)
        assert_clean(directory)
        second = file_identities(directory)
        fresh = {name for name in second if second[name] != first.get(name)}
        assert fresh == {
            "manifest.json",
            "codes-00000002.bin",
            f"seg-{head}-00000002.bin",
        }
        # Every other segment is the very same file: same inode, untouched
        # mtime, same bytes.
        kept = set(second) - fresh
        assert len(kept) == shards - 1
        for name in kept:
            assert open(os.path.join(directory, name), "rb").read() == contents[name]
        stats = index.stats()
        assert stats["saves"] == 2.0
        assert stats["save_shards_written"] == float(shards + 1)
        assert stats["save_bytes_written"] == float(
            sum(size for _, size, _ in first.values())
            + sum(second[name][1] for name in fresh)
        )
        loaded = load_index(directory, similarity=SIMILARITY)
        assert snapshot(loaded) == snapshot(index)
        assert loaded.get("e0").category == "Relabelled"

        # Nothing changed: no segment is written, only the two small files.
        index.save(directory)
        third = file_identities(directory)
        assert {name for name in third if third[name] != second.get(name)} == {
            "manifest.json",
            "codes-00000003.bin",
        }
        assert index.stats()["save_shards_written"] == float(shards + 1)
        assert index.stats()["saves"] == 3.0

    def test_loaded_index_saves_proportionally_onto_its_directory(self, tmp_path):
        directory = str(tmp_path / "index")
        self.build().save(directory)
        before = file_identities(directory)
        loaded = load_index(directory, similarity=SIMILARITY)
        loaded.add_many(**entries(80, 2, 58.0, 60.0))
        loaded.save(directory)
        after = file_identities(directory)
        head = max(loaded.shard_sizes())
        assert {name for name in after if after[name] != before.get(name)} == {
            "manifest.json",
            "codes-00000002.bin",
            f"seg-{head}-00000002.bin",
        }
        assert loaded.stats()["save_shards_written"] == 1.0

    def test_second_directory_gets_a_full_independent_snapshot(self, tmp_path):
        first_dir, second_dir = str(tmp_path / "first"), str(tmp_path / "second")
        index = self.build()
        index.save(first_dir)
        shards = len(index.shard_sizes())
        first = file_identities(first_dir)
        at_first_save = snapshot(index)
        index.add_many(**entries(80, 3, 55.0, 60.0))
        index.save(second_dir)
        assert_clean(second_dir)
        assert index.stats()["save_shards_written"] == float(2 * shards)
        assert file_identities(first_dir) == first
        assert snapshot(load_index(first_dir, similarity=SIMILARITY)) == at_first_save
        assert snapshot(load_index(second_dir, similarity=SIMILARITY)) == snapshot(index)
        # The markers now describe second_dir, so going back is a full write
        # again, not a guess about what first_dir still holds.
        index.save(first_dir)
        assert_clean(first_dir)
        assert index.stats()["save_shards_written"] == float(3 * shards)
        assert snapshot(load_index(first_dir, similarity=SIMILARITY)) == snapshot(index)

    def test_segment_swept_by_another_writer_is_rewritten(self, tmp_path):
        directory = str(tmp_path / "index")
        index = self.build()
        index.save(directory)
        victim = min(index.shard_sizes())
        os.unlink(os.path.join(directory, segment_of(directory, victim)))
        index.save(directory)
        assert_clean(directory)
        assert segment_of(directory, victim) == f"seg-{victim}-00000002.bin"
        assert snapshot(load_index(directory, similarity=SIMILARITY)) == snapshot(index)


# ------------------------------------------------------------------- fidelity
class TestRoundTrips:
    def test_load_save_onto_same_directory_load_parity(self, tmp_path):
        """Saving onto the directory an index was loaded from never touches
        a file its own matrices are mapped from."""
        index = ShardedVectorIndex(SIMILARITY, window_days=WINDOW)
        index.add_many(**entries(0, 120, 0.0, 90.0))
        index.update_category("e11", "Rewritten")
        target = str(tmp_path / "index")
        index.save(target)
        loaded = ShardedVectorIndex.load(target, similarity=SIMILARITY)
        assert len(loaded) == len(index)
        assert loaded.get("e11").category == "Rewritten"
        assert snapshot(loaded) == snapshot(index)
        loaded.save(target)
        assert_clean(target)
        resaved = ShardedVectorIndex.load(target, similarity=SIMILARITY)
        assert snapshot(loaded) == snapshot(index) == snapshot(resaved)
        # Post-load inserts and relabels still work and persist.
        for reader in (loaded, index):
            reader.add_many(**entries(120, 4, 85.0, 90.0))
            reader.update_category("e5", "Late")
        loaded.save(target)
        assert_clean(target)
        final = load_index(target, similarity=SIMILARITY)
        assert snapshot(final) == snapshot(loaded) == snapshot(index)
        # The index swept the segments `resaved` maps; its views keep them.
        assert snapshot(resaved)["shard_sizes"] != snapshot(final)["shard_sizes"]
        assert resaved.get("e11").category == "Rewritten"

    def test_reused_shard_key_gets_its_own_segment(self, tmp_path):
        """Dirtiness lives on the shard object, not on ``(key, rows)``.

        Buckets -2 and -1 merge into a compaction-made shard keyed 0; that
        shard is merged away in turn; an insert into time bucket 0 then
        re-creates key 0 with the *same row count* as the segment last
        saved under that key.
        """
        directory = str(tmp_path / "index")
        index = ShardedVectorIndex(SIMILARITY, window_days=WINDOW)
        index.add_many(**entries(0, 3, -20.0, -10.0))
        index.add_many(**entries(3, 3, -10.0, -0.5))
        index.compact(min_entries=5, max_entries=100)
        assert index.shard_sizes() == {0: 6}
        index.save(directory)
        assert segment_of(directory, 0) == "seg-0-00000001.bin"

        index.add_many(**entries(6, 3, -30.0, -20.5))
        index.compact(min_entries=7, max_entries=100)
        assert index.shard_sizes() == {1: 9}
        index.add_many(**entries(9, 6, 0.5, 9.5))
        assert index.shard_sizes() == {0: 6, 1: 9}
        index.save(directory)
        assert_clean(directory)
        assert segment_of(directory, 0) == "seg-0-00000002.bin"
        loaded = load_index(directory, similarity=SIMILARITY)
        assert snapshot(loaded) == snapshot(index)
        assert sorted(loaded._shards[0].ids) == sorted(  # noqa: SLF001
            f"e{serial}" for serial in range(9, 15)
        )

    @pytest.mark.parametrize(
        "filters, days, skipped, pruned",
        [
            ({"history_before_day": 20.0}, [15.0, 25.0], [2, 3], []),
            ({"categories": {"A"}}, [15.0, 25.0], [1, 2, 3], []),
            ({"history_before_day": 20.0, "categories": {"A"}}, [15.0, 25.0], [1, 2, 3], []),
            ({}, [35.0, 35.0], [], [2]),
        ],
        ids=["day", "category", "both", "pruned"],
    )
    def test_a_shard_a_filter_skips_stays_unread_until_a_lookup(
        self, tmp_path, filters, days, skipped, pruned
    ):
        """Load maps each segment; only a scan or a lookup snaps a shard's rows.

        Four shards: days 0–10 in categories A and B, days 10–20 in B,
        days 20–30 in C, and day 35 holding nine rows at the first query's
        vector, eight in D and one in C.  A search before day 20 skips the
        last two shards, one for category A the last three; six eligible
        rows at most never fill a pool of ``2k = 8``, so no shard is pruned.
        Searched from day 35 with no filter, both queries fill their pools
        from the last shard alone, strictly above the C shard's bound, and
        cover C there: the C shard is pruned, the B shard (B uncovered) and
        the A-and-B shard (A uncovered) are scanned.  A skipped or pruned
        shard gets no private row buffer, a scanned one does, and ``get``
        still returns an unread row's snapped vector.
        """
        rng = np.random.default_rng(12)
        vectors = np.vstack([rng.standard_normal((9, DIM)), np.repeat(QUERIES[:1], 9, axis=0)])
        index = ShardedVectorIndex(SIMILARITY, window_days=WINDOW)
        index.add_many(
            [f"s{row}" for row in range(18)], vectors,
            [1.0, 4.0, 8.0, 11.0, 14.0, 18.0, 21.0, 24.0, 28.0] + [35.0] * 9,
            ["A", "B", "A", "B", "B", "B", "C", "C", "C"] + ["D"] * 8 + ["C"],
        )
        index.save(tmp_path)
        loaded = load_index(tmp_path, similarity=SIMILARITY)
        shards = loaded._shards  # noqa: SLF001
        assert sorted(shards) == [0, 1, 2, 3]
        assert all(row_buffer(shard) is None for shard in shards.values())
        found = loaded.search_many(QUERIES[:2], days, **filters)
        assert [[(n.incident_id, n.similarity) for n in row] for row in found] == [
            [(n.incident_id, n.similarity) for n in row]
            for row in index.search_many(QUERIES[:2], days, **filters)
        ]
        stats = loaded.stats()
        assert stats["shards_skipped"] == 2 * len(skipped)
        assert stats["shards_pruned"] == 2 * len(pruned)
        assert stats["shards_scanned"] == 2 * (4 - len(skipped) - len(pruned))
        assert [row_buffer(shards[key]) is None for key in range(4)] == [
            key in skipped + pruned for key in range(4)
        ]
        for incident_id in ("s4", "s7"):
            row = int(incident_id[1:])
            np.testing.assert_array_equal(
                loaded.get(incident_id).vector, np.rint(vectors[row] * 2.0**20) / 2.0**20
            )

    def test_empty_index_round_trips(self, tmp_path):
        directory = str(tmp_path / "empty")
        ShardedVectorIndex(SIMILARITY, window_days=WINDOW).save(directory)
        assert_clean(directory)
        loaded = load_index(directory, similarity=SIMILARITY)
        assert len(loaded) == 0 and loaded.shard_sizes() == {}
        loaded.add_many(**entries(0, 3, 0.0, 5.0))
        loaded.save(directory)
        assert len(load_index(directory, similarity=SIMILARITY)) == 3


OPERATIONS = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(1, 12),
        st.floats(-30.0, 80.0),
        st.floats(0.5, 25.0),
    ),
    st.tuples(st.just("relabel"), st.integers(0, 10_000), st.integers(0, 6)),
    st.tuples(st.just("compact"), st.integers(0, 8), st.integers(16, 40)),
    st.tuples(st.just("save"), st.sampled_from(["a", "a", "a", "b"])),
    st.tuples(st.just("reload"), st.sampled_from(["a", "b"])),
)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(operations=st.lists(OPERATIONS, min_size=1, max_size=14))
    def test_any_interleaving_ends_with_directory_equal_to_live_index(
        self, operations
    ):
        with tempfile.TemporaryDirectory() as root:
            directories = {"a": os.path.join(root, "a"), "b": os.path.join(root, "b")}
            index = ShardedVectorIndex(SIMILARITY, window_days=WINDOW)
            serial = 0
            for operation in operations:
                kind = operation[0]
                if kind == "add":
                    _, count, day, span = operation
                    index.add_many(**entries(serial, count, day, day + span, seed=1))
                    serial += count
                elif kind == "relabel" and serial:
                    _, target, category = operation
                    index.update_category(f"e{target % serial}", f"cat{category}")
                elif kind == "compact":
                    _, floor, ceiling = operation
                    index.compact(min_entries=floor, max_entries=ceiling)
                elif kind == "save":
                    index.save(directories[operation[1]])
                elif kind == "reload" and os.path.isdir(directories[operation[1]]):
                    # The live index becomes whatever that directory last
                    # committed (possibly an older state: a rollback).
                    index = load_index(directories[operation[1]], similarity=SIMILARITY)
                    serial = 1 + max(
                        (int(incident_id[1:]) for incident_id in index._locator),  # noqa: SLF001
                        default=-1,
                    )
            index.save(directories["a"])
            assert_clean(directories["a"])
            loaded = load_index(directories["a"], similarity=SIMILARITY)
            assert snapshot(loaded) == snapshot(index)
