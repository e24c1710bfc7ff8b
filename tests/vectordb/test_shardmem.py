"""The segment codec under the sharded index.

Unit coverage for the layout planner, the segment write/map round trip
and its fail-fast validation.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.vectordb.shardmem import (
    ALIGNMENT,
    map_segment,
    plan_layout,
    write_durable,
    write_segment,
)


def sample_arrays(rng, rows, dim):
    matrix = rng.standard_normal((rows, dim))
    return {
        "matrix": matrix,
        "days": rng.uniform(0.0, 100.0, size=rows),
        "sq_norms": np.einsum("ij,ij->i", matrix, matrix),
        "seqs": np.arange(rows, dtype=np.int64),
    }


class TestLayout:
    def test_every_field_and_the_blob_are_aligned(self):
        for rows, dim in ((7, 13), (1, 13), (100, 13), (0, 0)):
            offsets, blob_offset = plan_layout(rows, dim)
            assert list(offsets) == ["matrix", "days", "sq_norms", "seqs"]
            assert blob_offset % ALIGNMENT == 0
            flat = list(offsets.values())
            assert all(offset % ALIGNMENT == 0 for offset in flat)
            # Fields follow the header in order, without overlap.
            assert flat == sorted(flat) and flat[0] >= ALIGNMENT
            assert blob_offset >= flat[-1] + rows * 8


class TestSegmentRoundtrip:
    def test_write_map_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        for rows, dim, blob in ((6, 8, b"[]"), (1, 8, b""), (40, 3, b"x" * 1000)):
            arrays = sample_arrays(rng, rows, dim)
            path = str(tmp_path / f"seg-{rows}.bin")
            written = write_segment(path, arrays, blob)
            assert written == os.path.getsize(path)
            views, read_blob = map_segment(path, rows, dim)
            assert read_blob == blob
            for name, expected in arrays.items():
                np.testing.assert_array_equal(views[name], expected)
                assert not views[name].flags.writeable
                assert views[name].ctypes.data % ALIGNMENT == 0

    def test_views_outlive_an_unlinked_file(self, tmp_path):
        """A swept segment stays readable through the views that map it."""
        arrays = sample_arrays(np.random.default_rng(6), 5, 4)
        path = str(tmp_path / "seg.bin")
        write_segment(path, arrays, b"blob")
        views, _ = map_segment(path, 5, 4)
        os.unlink(path)
        np.testing.assert_array_equal(views["matrix"], arrays["matrix"])

    def test_mismatch_and_truncation_fail_at_map_time(self, tmp_path):
        arrays = sample_arrays(np.random.default_rng(7), 5, 4)
        path = str(tmp_path / "seg.bin")
        write_segment(path, arrays, b"blob")
        with pytest.raises(ValueError, match="manifest expects 6x4"):
            map_segment(path, 6, 4)
        with pytest.raises(ValueError, match="manifest expects 5x3"):
            map_segment(path, 5, 3)
        data = open(path, "rb").read()
        for keep in (len(data) - 1, 100, 8, 0):
            write_durable(path, [data[:keep]])
            with pytest.raises(ValueError, match="partial segment"):
                map_segment(path, 5, 4)
        write_durable(path, [b"NOTASEGM" + data[8:]])
        with pytest.raises(ValueError, match="magic"):
            map_segment(path, 5, 4)
        with pytest.raises(FileNotFoundError):
            map_segment(str(tmp_path / "absent.bin"), 5, 4)
