"""Shard memory: the on-disk segment of one persisted shard, and shared blobs.

* **Segments.**  :func:`write_segment` lays one shard's row-immutable
  payload — float64 matrix, creation days, cached squared norms, insertion
  sequences, then a trailing blob the index layer fills with the shard's
  ids and texts — into one file, every array on a 64-byte boundary behind
  a fixed header (magic, rows, dim, blob length).  A segment is written
  once under a name no earlier save used and never rewritten, so
  :class:`ShardSegment` can map it read-only for as long as anything views
  it: pages of a shard's matrix fault in only when a query actually scans
  that shard.  :func:`write_durable` is the one write primitive of a save
  (open, write, flush, ``fsync``).

* **Shared blobs.**  :class:`SharedBlob` is one pickled payload in a POSIX
  shared-memory segment, written once and read by worker processes by
  name (the collection pool's telemetry-hub snapshot).  The creating side
  owns the segment: :meth:`SharedBlob.destroy` unlinks it, pid-guarded so
  a forked worker that inherited the object never does.  Segment lifetime
  is managed here, not by :mod:`multiprocessing`'s resource tracker:
  every create/attach/unlink runs under :func:`_quiet_tracker`, because on
  this interpreter ``SharedMemory`` registers even on attach and fork
  workers share the parent's tracker, which corrupts its accounting
  (spurious KeyErrors, bogus leak warnings, double unlinks).
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import secrets
import struct
from dataclasses import dataclass
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
    ("sq_norms", "<f8", 1),      # cached |v|^2 per row
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

    Rows and dim are taken from the ``matrix`` field.  Arrays are handed to
    the file as buffers, not copied into an intermediate image.  Returns
    the bytes written.
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


@contextlib.contextmanager
def _quiet_tracker():
    """Suppress :mod:`multiprocessing` resource-tracker bookkeeping.

    This module manages segment lifetime explicitly (``destroy`` with an
    owner-pid guard), which the tracker's automatic accounting actively
    fights: on this interpreter ``SharedMemory`` registers even on
    *attach*, so fork workers — which share the parent's tracker process —
    corrupt the parent's registration set, producing spurious KeyErrors
    and bogus leak warnings at shutdown (Python 3.13 grew an official
    ``track=False`` for exactly this reason).  All create/attach/unlink
    calls run under this patch, so the tracker never hears about blob
    segments at all.
    """
    from multiprocessing import resource_tracker

    originals = (resource_tracker.register, resource_tracker.unregister)
    resource_tracker.register = lambda name, rtype: None
    resource_tracker.unregister = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register, resource_tracker.unregister = originals


def attach_shared_memory(name: str):
    """Attach an existing POSIX shm segment without tracker registration.

    ``SharedMemory(name=...)`` registers the segment with the resource
    tracker even on attach; a reader never owns the segment, so that
    registration would later cause spurious unlink attempts.  Attaching
    under :func:`_quiet_tracker` sidesteps the whole class of problems.
    """
    from multiprocessing import shared_memory

    with _quiet_tracker():
        return shared_memory.SharedMemory(name=name)


# ------------------------------------------------------------- shared blobs
@dataclass(frozen=True)
class BlobSpec:
    """Address of a :class:`SharedBlob`: segment name + payload length."""

    name: str
    length: int


class SharedBlob:
    """One pickled payload in shared memory, written once, read by workers.

    The collection pool uses this for its telemetry-hub snapshot: the hub is
    pickled **once per pool lifetime** into a named segment, and every
    worker — including workers of executors rebuilt after a crash or a
    resize — attaches by name and unpickles from the mapped buffer instead
    of receiving a fresh pickle through the executor plumbing per build.
    """

    def __init__(self, segment, length: int) -> None:
        self._segment = segment
        # Fork safety: only the creating process unlinks (forked workers
        # inherit this object and must not).
        self._owner_pid = os.getpid()
        self.spec = BlobSpec(name=segment.name.lstrip("/"), length=length)

    @classmethod
    def create(cls, payload: object) -> "SharedBlob":
        """Pickle ``payload`` into a fresh shared segment."""
        from multiprocessing import shared_memory

        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with _quiet_tracker():
            segment = shared_memory.SharedMemory(
                create=True, size=max(len(data), 1),
                name=f"repro-blob-{secrets.token_hex(8)}",
            )
        segment.buf[: len(data)] = data
        return cls(segment, len(data))

    @staticmethod
    def read(spec: BlobSpec) -> object:
        """Attach, unpickle and detach in one step (reader side)."""
        segment = attach_shared_memory(spec.name)
        try:
            return pickle.loads(bytes(segment.buf[: spec.length]))
        finally:
            segment.close()

    def destroy(self) -> None:
        """Unlink the segment (owner side, idempotent)."""
        if self._segment is None:
            return
        try:
            self._segment.close()
            if os.getpid() == self._owner_pid:
                with _quiet_tracker():
                    self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._segment = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.destroy()
        except Exception:  # noqa: BLE001 - interpreter-shutdown races
            pass
