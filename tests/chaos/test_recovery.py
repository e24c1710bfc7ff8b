"""Index I/O chaos: corrupt/partial manifests, segments and codes, fallback ladder."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.chaos import load_index_resilient
from repro.core.errors import IndexCorruptionError, PermanentError
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


def _segments(path):
    """The segment files of a saved index directory, largest first."""
    return sorted(path.glob("seg-*.bin"), key=lambda file: -file.stat().st_size)


def _codes_file(path):
    (codes,) = path.glob("codes-*.bin")
    return codes


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
    # The retired layouts (per-shard .npz v1/v2, single-arena v3) fail
    # typed, by number.
    index = _build_index()
    index.save(str(path))
    index.close()
    for version in (1, 2, 3):
        _retire_manifest(path, version)
        with pytest.raises(IndexCorruptionError, match=f"version {version}"):
            load_index(str(path))


def test_partial_segment_fails_fast_with_typed_error(tmp_path):
    """A segment shorter than its manifest row count fails at load time.

    Every truncation point — inside the blob, inside the arrays, inside
    the header, empty — is caught by ``load`` itself, never deferred to
    the first scan that would touch a missing page.
    """
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    segment = _segments(path)[0]
    data = segment.read_bytes()
    for keep in (len(data) - 1, len(data) // 2, 10, 0):
        segment.write_bytes(data[:keep])
        with pytest.raises(IndexCorruptionError, match="partial segment"):
            ShardedVectorIndex.load(str(path))


def test_segment_for_other_rows_raises_typed_error(tmp_path):
    """A segment whose header disagrees with the manifest is corruption."""
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    big, *_, small = _segments(path)
    assert big.stat().st_size != small.stat().st_size
    small.write_bytes(big.read_bytes())
    with pytest.raises(IndexCorruptionError, match="manifest expects"):
        ShardedVectorIndex.load(str(path))


def test_missing_segment_raises_typed_error(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    os.remove(_segments(path)[0])
    with pytest.raises(IndexCorruptionError, match="segment"):
        ShardedVectorIndex.load(str(path))


def test_missing_short_or_out_of_range_codes_file_raises_typed_error(tmp_path):
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    codes = _codes_file(path)
    saved = codes.read_bytes()
    for bad in (3, -1):  # the table names three categories, codes 0–2
        table = np.frombuffer(saved, dtype="<i8").copy()
        table[-1] = bad
        codes.write_bytes(table.tobytes())
        with pytest.raises(IndexCorruptionError, match="category code out of range"):
            ShardedVectorIndex.load(str(path))
    codes.write_bytes(saved[:-8])
    with pytest.raises(IndexCorruptionError, match="partial codes file"):
        ShardedVectorIndex.load(str(path))
    os.remove(codes)
    with pytest.raises(IndexCorruptionError, match="missing codes file"):
        ShardedVectorIndex.load(str(path))


def test_shards_that_disagree_on_dim_raise_typed_error(tmp_path):
    """A shard narrower than the manifest's ``dim`` is corrupt, not a new dim."""
    from repro.vectordb.shardmem import map_segment, write_segment

    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["dim"] == DIM and len(manifest["shards"]) > 1
    meta = manifest["shards"][-1]
    segment = str(path / meta["segment"])
    views, blob = map_segment(segment, meta["rows"], meta["dim"])
    arrays = {name: np.array(view) for name, view in views.items()}
    del views
    arrays["matrix"] = np.ascontiguousarray(arrays["matrix"][:, :3])
    write_segment(segment, arrays, blob)
    meta["dim"] = 3
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexCorruptionError, match=f"shard {meta['key']} .*dim 3"):
        ShardedVectorIndex.load(str(path))


def test_segment_with_duplicate_ids_raises_typed_error(tmp_path):
    from repro.vectordb.shardmem import map_segment, write_segment

    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    meta = json.loads((path / "manifest.json").read_text())["shards"][0]
    segment = str(path / meta["segment"])
    views, blob = map_segment(segment, meta["rows"], meta["dim"])
    ids, texts = json.loads(blob)
    ids[-1] = ids[0]
    arrays = {name: np.array(view) for name, view in views.items()}
    del views
    write_segment(segment, arrays, json.dumps([ids, texts]).encode())
    with pytest.raises(IndexCorruptionError, match="duplicate incident id"):
        ShardedVectorIndex.load(str(path))


def test_manifest_naming_a_foreign_file_raises_typed_error(tmp_path):
    """Only segment/codes names resolve; a manifest cannot point elsewhere."""
    index = _build_index()
    path = tmp_path / "idx"
    index.save(str(path))
    index.close()
    manifest = path / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["shards"][0]["segment"] = "../elsewhere.bin"
    manifest.write_text(json.dumps(payload))
    with pytest.raises(IndexCorruptionError, match="foreign file"):
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
    """A torn segment, a lost codes file or a retired manifest rebuilds."""
    index = _build_index()
    expected = _neighbor_ids(index)

    def tear_segment(path):
        segment = _segments(path)[0]
        segment.write_bytes(segment.read_bytes()[:100])

    for name, damage in (
        ("torn", tear_segment),
        ("codes", lambda path: os.remove(_codes_file(path))),
        ("retired-v2", lambda path: _retire_manifest(path, 2)),
        ("retired-v3", lambda path: _retire_manifest(path, 3)),
    ):
        path = tmp_path / name
        index.save(str(path))
        damage(path)
        loaded, source = load_index_resilient(str(path), rebuild=_build_index)
        assert source == "rebuilt", name
        assert _neighbor_ids(loaded) == expected
        loaded.close()
    index.close()


def test_a_retired_flat_npz_snapshot_takes_the_rebuild_rung(tmp_path):
    """The single-matrix index's one ``.npz`` file is corruption, then a rebuild.

    Opening ``flat.npz/manifest.json`` is a ``NotADirectoryError``, an
    ``OSError`` the manifest read reports as :class:`IndexCorruptionError`.
    """
    index = _build_index()
    expected = _neighbor_ids(index)
    path = tmp_path / "flat.npz"
    entries = [index.get(f"INC-{position:04d}") for position in range(24)]
    np.savez_compressed(
        path,
        matrix=np.array([entry.vector for entry in entries]),
        created_days=np.array([entry.created_day for entry in entries]),
        metadata=np.array(json.dumps([
            {"incident_id": entry.incident_id, "category": entry.category, "text": entry.text}
            for entry in entries
        ])),
    )
    with pytest.raises(IndexCorruptionError, match="corrupt manifest"):
        load_index(str(path))
    loaded, source = load_index_resilient(str(path), rebuild=_build_index)
    assert source == "rebuilt"
    assert _neighbor_ids(loaded) == expected
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

