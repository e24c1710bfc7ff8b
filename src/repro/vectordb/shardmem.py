"""Shard memory: the file-backed arena of a persisted index, and shared blobs.

* **Lazy on-disk mapping.**  :meth:`ShardArena.build` lays every shard's
  scoring payload (float64 matrix, creation days, cached squared norms,
  insertion sequences, category codes) into **one** 64-byte-aligned file.
  A persisted index (manifest v3) is re-opened with ``np.memmap``
  semantics — pages of a shard's matrix fault in only when a query
  actually scans that shard.  Fields are located by *name* through the
  manifest's recorded offsets, so a block that lists fields this module
  no longer reads still maps.

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Block alignment inside the arena, in bytes.  64 covers every SIMD/cache
#: line width numpy kernels care about.
ALIGNMENT = 64

#: The per-shard arrays an arena block carries, in layout order.
#: (name, dtype, per-row elements: None means ``dim``)
_FIELDS: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("matrix", "<f8", None),     # float64 vectors — the exact scoring source
    ("days", "<f8", 1),          # creation day per row
    ("sq_norms", "<f8", 1),      # cached |v|^2 per row
    ("seqs", "<i8", 1),          # global insertion sequence per row
    ("codes", "<i8", 1),         # global category code per row
)


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass(frozen=True)
class BlockSpec:
    """Byte layout of one shard inside the arena."""

    key: int
    rows: int
    dim: int
    offsets: Tuple[Tuple[str, int], ...]

    def offset(self, name: str) -> int:
        for field_name, offset in self.offsets:
            if field_name == name:
                return offset
        raise KeyError(name)


@dataclass(frozen=True)
class ArenaSpec:
    """Everything needed to map an arena file: its path, size and layout."""

    path: str
    size: int
    blocks: Tuple[BlockSpec, ...] = field(default=())

    def block(self, key: int) -> BlockSpec:
        for block in self.blocks:
            if block.key == key:
                return block
        raise KeyError(f"shard {key} not in arena")


def plan_layout(
    shapes: Sequence[Tuple[int, int, int]],
) -> Tuple[Tuple[BlockSpec, ...], int]:
    """Byte layout for shards given ``(key, rows, dim)`` triples.

    Every field of every shard starts on an :data:`ALIGNMENT` boundary; the
    returned total size is likewise aligned (and never zero, since empty
    files cannot be mapped).
    """
    offset = 0
    blocks: List[BlockSpec] = []
    for key, rows, dim in shapes:
        offsets: List[Tuple[str, int]] = []
        for name, dtype, width in _FIELDS:
            offset = _align(offset)
            offsets.append((name, offset))
            per_row = dim if width is None else width
            offset += rows * per_row * np.dtype(dtype).itemsize
        blocks.append(BlockSpec(key=key, rows=rows, dim=dim, offsets=tuple(offsets)))
    return tuple(blocks), max(_align(offset), ALIGNMENT)


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


class ShardArena:
    """One memory-mapped file holding every shard's scoring payload.

    Create with :meth:`build` (writer side) or :meth:`attach` (reader
    side); read arrays back with :meth:`views`.  The object is deliberately
    dumb about *content* — layout and mapping only — so the index layer
    decides what the arrays mean.
    """

    def __init__(self, spec: ArenaSpec, mapped: mmap.mmap) -> None:
        self.spec = spec
        self._mapped = mapped
        self._buffer = memoryview(mapped)
        self._closed = False

    # ----------------------------------------------------------------- create
    @classmethod
    def build(
        cls,
        payloads: Sequence[Tuple[int, Dict[str, np.ndarray]]],
        path: str,
    ) -> "ShardArena":
        """Lay shard payloads into a fresh arena file at ``path``.

        ``payloads`` maps shard key -> field arrays (the :data:`_FIELDS`
        names); rows/dim are derived from the ``matrix`` field.  An
        existing file at ``path`` is truncated — writers that must not
        disturb a live mapping of it build under a temporary name and
        ``os.replace`` afterwards.
        """
        shapes = [
            (key, arrays["matrix"].shape[0], arrays["matrix"].shape[1])
            for key, arrays in payloads
        ]
        blocks, size = plan_layout(shapes)
        with open(path, "w+b") as handle:
            handle.truncate(size)
            mapped = mmap.mmap(handle.fileno(), size)
        arena = cls(
            ArenaSpec(path=os.path.abspath(path), size=size, blocks=blocks), mapped
        )
        for (key, arrays), block in zip(payloads, arena.spec.blocks):
            for name, dtype, width in _FIELDS:
                view = arena._field(block, name, dtype, width, writable=True)
                view[...] = arrays[name]
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec, writable: bool = False) -> "ShardArena":
        """Map an existing arena file without copying."""
        with open(spec.path, "r+b" if writable else "rb") as handle:
            mapped = mmap.mmap(
                handle.fileno(),
                spec.size,
                access=mmap.ACCESS_WRITE if writable else mmap.ACCESS_READ,
            )
        return cls(spec, mapped)

    # ------------------------------------------------------------------- read
    def _field(
        self, block: BlockSpec, name: str, dtype: str, width: Optional[int],
        writable: bool = False,
    ) -> np.ndarray:
        per_row = block.dim if width is None else width
        count = block.rows * per_row
        view = np.frombuffer(
            self._buffer, dtype=np.dtype(dtype), count=count,
            offset=block.offset(name),
        )
        if width is None:
            view = view.reshape(block.rows, block.dim)
        if not writable:
            view = view.view()
            view.flags.writeable = False
        return view

    def views(self, key: int) -> Dict[str, np.ndarray]:
        """Read-only numpy views of one shard's arrays (zero copies)."""
        if self._closed:
            raise ValueError("arena is closed")
        block = self.spec.block(key)
        return {
            name: self._field(block, name, dtype, width)
            for name, dtype, width in _FIELDS
        }

    # ---------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Drop this process's mapping; never touches the file itself."""
        if self._closed:
            return
        self._closed = True
        # numpy views created via frombuffer keep the exported memoryview
        # alive; release our handle and let theirs expire with them.
        try:
            self._buffer.release()
        except BufferError:  # pragma: no cover - exported views
            pass
        try:
            self._mapped.close()
        except BufferError:  # pragma: no cover - live views hold the map
            pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter-shutdown races
            pass


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
