"""Satellite: idempotent, exception-safe teardown across the stack.

``stop()``/``close()`` may be called twice, out of order, or after a
component already crashed — teardown must still release every executor,
thread and shared-memory segment, exactly once, without raising from the
second call.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
import streamtest_utils as stu

from repro.core.collect_pool import CollectionPool
from repro.vectordb import ShardedVectorIndex


def _ingestor(copilot=None, **config_kwargs):
    copilot = copilot or stu.build_stream_copilot(with_history=False)
    return copilot, copilot.stream(stu.ingest_config(collect_workers=2, **config_kwargs))


class TestStreamIngestorStop:
    def test_stop_twice_is_a_noop(self):
        _, ingestor = _ingestor()
        futures = ingestor.submit_many([stu.make_stream_alert(0)])
        ingestor.stop()
        stats_first = ingestor.stats().as_dict()
        ingestor.stop()
        assert ingestor.stats().as_dict() == stats_first
        assert all(future.done() for future in futures)

    def test_stop_without_start(self):
        _, ingestor = _ingestor()
        ingestor.stop()  # worker never spawned: still drains and tears down

    def test_stop_after_started_worker_twice(self):
        _, ingestor = _ingestor()
        ingestor.start()
        ingestor.submit_many([stu.make_stream_alert(i) for i in range(3)])
        ingestor.stop()
        ingestor.stop()
        assert ingestor.stats().processed == 3

    def test_stop_is_exception_safe_when_pool_close_raises(self, monkeypatch):
        """A crashing pool teardown poisons one stop(), never the next."""
        _, ingestor = _ingestor()
        ingestor.submit_many([stu.make_stream_alert(0)])
        original_close = ingestor._collect_pool.close
        calls = {"n": 0}

        def exploding_close():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected teardown crash")
            original_close()

        monkeypatch.setattr(ingestor._collect_pool, "close", exploding_close)
        with pytest.raises(RuntimeError, match="injected teardown crash"):
            ingestor.stop()
        ingestor.stop()  # second stop completes the teardown cleanly
        assert calls["n"] == 2

    def test_stop_leaves_no_threads(self):
        before = set(threading.enumerate())
        _, ingestor = _ingestor()
        ingestor.start()
        ingestor.submit_many([stu.make_stream_alert(i) for i in range(4)])
        ingestor.stop()
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ]
        assert leaked == []

    def test_worker_crash_resolves_futures_and_counts_worker_error(
        self, monkeypatch
    ):
        """The _fail_batch containment path: a crash inside the batch
        machinery (before per-alert handling can catch it) resolves every
        future exceptionally instead of stranding them."""
        copilot, ingestor = _ingestor()
        monkeypatch.setattr(
            copilot.collection,
            "next_incident_id",
            lambda: (_ for _ in ()).throw(RuntimeError("id allocator down")),
        )
        futures = ingestor.submit_many([stu.make_stream_alert(i) for i in range(3)])
        ingestor.flush()
        for future in futures:
            with pytest.raises(RuntimeError, match="id allocator down"):
                future.result(timeout=10.0)
        stats = ingestor.stats()
        assert stats.worker_errors == 1
        assert stats.processed == stats.submitted == 3
        # The stream survives: undo the crash and keep ingesting.
        monkeypatch.undo()
        survivors = ingestor.submit_many([stu.make_stream_alert(9)])
        ingestor.stop()
        assert survivors[0].result(timeout=10.0) is not None
        assert ingestor.stats().worker_errors == 1


class TestCollectionPoolClose:
    def test_close_twice(self):
        copilot = stu.build_stream_copilot(with_history=False)
        pool = CollectionPool(copilot.collection, workers=2)
        pool.run([stu.make_stream_alert(0)], ["INC-X-1"])
        pool.close()
        pool.close()

    def test_close_never_run(self):
        copilot = stu.build_stream_copilot(with_history=False)
        pool = CollectionPool(copilot.collection, workers=2)
        pool.close()


class TestShardedIndexClose:
    def _index(self):
        rng = np.random.default_rng(3)
        index = ShardedVectorIndex(window_days=10.0)
        for position in range(8):
            index.add(
                f"INC-{position}",
                rng.normal(size=4).astype(np.float32),
                float(position),
                "Cat",
            )
        return index

    def test_close_twice(self):
        index = self._index()
        index.close()
        index.close()

    def test_close_after_save_and_load(self, tmp_path):
        index = self._index()
        index.save(str(tmp_path / "idx"))
        index.close()
        loaded = ShardedVectorIndex.load(str(tmp_path / "idx"))
        loaded.close()
        loaded.close()
