"""Shard memory: the on-disk segment of one persisted shard.

:func:`write_segment` lays one shard's row-immutable payload — float64
matrix, creation days, squared norms, insertion sequences, then a
trailing blob the index layer fills with the shard's ids and texts — into
one file, every array on a 64-byte boundary behind a fixed header (magic,
rows, dim, blob length).  A segment is written once under a name no earlier
save used and never rewritten, so :func:`map_segment` can map it
read-only for as long as anything views it: pages of a shard's matrix fault
in only when a query actually scans that shard.  :func:`write_durable` is
the one write primitive of a save (open, write, flush, ``fsync``).
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

#: Field alignment inside a segment, in bytes.  64 covers every SIMD/cache
#: line width numpy kernels care about.
ALIGNMENT = 64

#: The per-shard arrays a segment carries, in layout order.
#: (name, dtype, per-row elements: None means ``dim``)
_FIELDS: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("matrix", "<f8", None),     # float64 vectors — the exact scoring source
    ("days", "<f8", 1),          # creation day per row
    ("sq_norms", "<f8", 1),      # |v|^2 per row (the index recomputes it on load)
    ("seqs", "<i8", 1),          # global insertion sequence per row
)

#: Segment header: magic, rows, dim, blob length in bytes.
_HEADER = struct.Struct("<8sQQQ")
SEGMENT_MAGIC = b"RCASEG04"


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def plan_layout(rows: int, dim: int) -> Tuple[Dict[str, int], int]:
    """Byte offsets of a ``(rows, dim)`` segment's fields, and of its blob.

    The header sits at offset 0; every field and the trailing blob start on
    an :data:`ALIGNMENT` boundary.  The layout is a pure function of the
    shape, so a reader needs only the header to find everything.
    """
    offset = _HEADER.size
    offsets: Dict[str, int] = {}
    for name, dtype, width in _FIELDS:
        offset = _align(offset)
        offsets[name] = offset
        per_row = dim if width is None else width
        offset += rows * per_row * np.dtype(dtype).itemsize
    return offsets, _align(offset)


def write_durable(path: str, chunks: Iterable) -> int:
    """Write ``chunks`` to a fresh file at ``path`` and ``fsync`` it.

    Returns the bytes written.  The file is durable when this returns, its
    directory entry only once the directory itself has been fsynced.
    """
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
        return handle.tell()


def write_segment(path: str, arrays: Dict[str, np.ndarray], blob: bytes) -> int:
    """Write one shard's arrays (the :data:`_FIELDS` names) and ``blob``.

    Rows and dim are taken from the ``matrix`` field, row-major on disk
    whatever the caller's layout.  Contiguous arrays are handed to the file
    as buffers, not copied into an intermediate image: a shard's squared
    norms are one row of its dim-major block.  Any other view is copied
    once: a shard's matrix is the transpose of its block's vector rows,
    so its C-order copy is the same bytes a row-major buffer wrote.
    Returns the bytes written.
    """
    rows, dim = arrays["matrix"].shape
    offsets, blob_offset = plan_layout(rows, dim)
    chunks = [_HEADER.pack(SEGMENT_MAGIC, rows, dim, len(blob))]
    position = _HEADER.size
    for name, dtype, _ in _FIELDS:
        array = np.ascontiguousarray(arrays[name], dtype=dtype)
        chunks += [bytes(offsets[name] - position), array]
        position = offsets[name] + array.nbytes
    chunks += [bytes(blob_offset - position), blob]
    return write_durable(path, chunks)


def map_segment(
    path: str, rows: int, dim: int
) -> Tuple[Dict[str, np.ndarray], bytes]:
    """Map a segment read-only: ``(field views, blob)``, zero array copies.

    Validates the header against the ``(rows, dim)`` the manifest recorded
    and the file's size against the layout, so a torn or mismatched
    segment fails here (``ValueError``/``OSError``) instead of faulting on
    the first scan of a missing page.  The views own the mapping: it is
    unmapped when the last of them dies, and never touches the file.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"partial segment {path}: no header")
        magic, file_rows, file_dim, blob_bytes = _HEADER.unpack(header)
        if magic != SEGMENT_MAGIC or (file_rows, file_dim) != (rows, dim):
            raise ValueError(
                f"segment {path} holds {file_rows}x{file_dim} rows "
                f"(magic {magic!r}), manifest expects {rows}x{dim}"
            )
        offsets, blob_offset = plan_layout(rows, dim)
        size = blob_offset + blob_bytes
        actual = os.fstat(handle.fileno()).st_size
        if actual < size:
            raise ValueError(
                f"partial segment {path}: {actual} bytes on disk, "
                f"layout needs {size}"
            )
        mapped = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_READ)
    views = {}
    for name, dtype, width in _FIELDS:
        per_row = dim if width is None else width
        view = np.frombuffer(
            mapped, dtype=np.dtype(dtype), count=rows * per_row, offset=offsets[name]
        )
        views[name] = view.reshape(rows, dim) if width is None else view
    return views, mapped[blob_offset:size]
