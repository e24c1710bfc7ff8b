"""Index I/O chaos: corrupt/partial manifests and arenas, fallback ladder."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.chaos import load_index_resilient
from repro.core.errors import IndexCorruptionError, PermanentError
from repro.telemetry import TelemetryHub
from repro.vectordb import ShardedVectorIndex, load_index

DIM = 8


def _build_index(entries: int = 24) -> ShardedVectorIndex:
    rng = np.random.default_rng(5)
    index = ShardedVectorIndex(window_days=10.0)
    for position in range(entries):
        index.add(
            f"INC-{position:04d}",
            rng.normal(size=DIM).astype(np.float32),
            float(position),
            f"Cat{position % 3}",
            text=f"incident {position}",
        )
    return index


def _neighbor_ids(index, query_day: float = 30.0):
    query = np.ones(DIM, dtype=np.float32)
    return [n.incident_id for n in index.search(query, query_day, k=5)]


def _retire_manifest(path, version: int) -> None:
    """Rewrite a saved manifest's ``version`` to a retired format's number."""
    manifest = path / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["version"] = version
    manifest.write_text(json.dumps(payload))


def test_corrupt_manifest_raises_typed_error(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    manifest = path / "manifest.json"
    manifest.write_text(manifest.read_text()[: manifest.stat().st_size // 2])
    with pytest.raises(IndexCorruptionError):
        load_index(str(path))


def test_non_json_manifest_raises_typed_error(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    (path / "manifest.json").write_bytes(b"\x00\xff not json at all")
    with pytest.raises(IndexCorruptionError):
        load_index(str(path))


def test_wrong_format_raises_typed_error(tmp_path):
    path = tmp_path / "idx"
    os.makedirs(path)
    (path / "manifest.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(IndexCorruptionError):
        ShardedVectorIndex.load(str(path))
    # The retired per-shard .npz manifests (v1, v2) fail typed, by number.
    index = _build_index()
    index.save(str(path))
    index.close()
    for version in (1, 2):
        _retire_manifest(path, version)
        with pytest.raises(IndexCorruptionError, match=f"version {version}"):
            load_index(str(path))


def test_partial_arena_raises_typed_error(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    arena = path / "arena.bin"
    data = arena.read_bytes()
    arena.write_bytes(data[: len(data) // 2])
    with pytest.raises(IndexCorruptionError, match="partial arena"):
        ShardedVectorIndex.load(str(path))


def test_missing_arena_raises_typed_error(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    os.remove(path / "arena.bin")
    with pytest.raises(IndexCorruptionError, match="arena"):
        ShardedVectorIndex.load(str(path))


def test_missing_manifest_stays_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        ShardedVectorIndex.load(str(tmp_path / "nowhere"))


def test_corruption_error_is_permanent_and_valueerror():
    assert issubclass(IndexCorruptionError, PermanentError)
    assert issubclass(IndexCorruptionError, ValueError)  # pre-taxonomy contract


def test_resilient_load_primary_path(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    expected = _neighbor_ids(index)
    index.close()
    loaded, source = load_index_resilient(str(path))
    assert source == "primary"
    assert _neighbor_ids(loaded) == expected
    loaded.close()


def test_resilient_load_falls_back_to_rebuild(tmp_path):
    """A torn arena, or a retired v2 manifest, rebuilds from the store."""
    index = _build_index()
    expected = _neighbor_ids(index)

    def tear_arena(path):
        arena = path / "arena.bin"
        arena.write_bytes(arena.read_bytes()[:100])

    for name, damage in (
        ("torn", tear_arena),
        ("retired", lambda path: _retire_manifest(path, 2)),
    ):
        path = tmp_path / name
        index.save(str(path))
        damage(path)
        hub = TelemetryHub()
        loaded, source = load_index_resilient(
            str(path), rebuild=_build_index, hub=hub
        )
        assert source == "rebuilt", name
        assert _neighbor_ids(loaded) == expected
        assert (
            hub.metrics.latest("rcacopilot.faults.index_rebuilds", "chaos-recovery")
            == 1.0
        )
        loaded.close()
    index.close()


def test_resilient_load_exhausted_reraises(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    (path / "manifest.json").write_bytes(b"{corrupt")
    with pytest.raises(IndexCorruptionError):
        load_index_resilient(str(path))

