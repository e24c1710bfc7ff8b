"""Embedding vector store for historical incidents.

The "Embedding vector DB" box of Figure 4: it keeps one embedding per
historical incident together with the metadata the similarity formula and
the prompt construction need (creation day, category, summary text).

The store is built for an always-on deployment ingesting a continuous
stream of labelled incidents: vectors live in one pre-allocated matrix that
grows geometrically, so ``add`` is amortized O(d) instead of re-stacking the
whole history, and the index can be persisted with :meth:`save` /
:meth:`load` and corrected in place with :meth:`update_category` when
on-call engineers confirm a different root-cause label.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Initial capacity of the pre-allocated vector matrix.
_INITIAL_CAPACITY = 64


@dataclass
class VectorEntry:
    """One stored incident embedding with its retrieval metadata."""

    incident_id: str
    vector: np.ndarray
    created_day: float
    category: str
    text: str = ""


class VectorStore:
    """An in-memory store of incident embeddings.

    Vectors are written into one pre-allocated matrix that doubles in
    capacity when full, so brute-force scoring of a query (or a whole batch
    of queries) against the history is a single vectorised operation and
    ``add`` never re-stacks previously stored rows.
    """

    def __init__(self, dim: Optional[int] = None) -> None:
        self.dim = dim
        self._entries: List[VectorEntry] = []
        self._by_id: Dict[str, int] = {}
        self._matrix: Optional[np.ndarray] = None  # capacity x dim, rows >= len used
        self._days: Optional[np.ndarray] = None    # capacity, aligned with matrix rows
        self._sq_norms: Optional[np.ndarray] = None  # cached |v|^2 per row
        self._sq_norms_size = 0  # rows covered by the cached norms

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VectorEntry]:
        return iter(self._entries)

    def __contains__(self, incident_id: str) -> bool:
        return incident_id in self._by_id

    # ------------------------------------------------------------------ insert
    def _ensure_capacity(self, additional: int) -> None:
        assert self.dim is not None
        needed = len(self._entries) + additional
        if self._matrix is None:
            capacity = max(_INITIAL_CAPACITY, needed)
            self._matrix = np.zeros((capacity, self.dim), dtype=np.float64)
            self._days = np.zeros(capacity, dtype=np.float64)
            return
        capacity = self._matrix.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.zeros((capacity, self.dim), dtype=np.float64)
        grown[: len(self._entries)] = self._matrix[: len(self._entries)]
        self._matrix = grown
        grown_days = np.zeros(capacity, dtype=np.float64)
        grown_days[: len(self._entries)] = self._days[: len(self._entries)]
        self._days = grown_days
        # Re-point entry views at the new buffer so the old one can be freed.
        for row, entry in enumerate(self._entries):
            entry.vector = grown[row]

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if self.dim is None:
            self.dim = vector.shape[0]
        elif vector.shape[0] != self.dim:
            raise ValueError(
                f"vector dimension {vector.shape[0]} does not match store dimension {self.dim}"
            )
        return vector

    def add(
        self,
        incident_id: str,
        vector: np.ndarray,
        created_day: float,
        category: str,
        text: str = "",
    ) -> None:
        """Add one incident embedding; ids must be unique.

        Amortized cost is one row write — the backing matrix is pre-allocated
        and doubles when full, so no existing rows are copied on the hot path.
        """
        if incident_id in self._by_id:
            raise ValueError(f"duplicate incident id in vector store: {incident_id}")
        vector = self._check_vector(vector)
        self._ensure_capacity(1)
        row = len(self._entries)
        self._matrix[row] = vector
        self._days[row] = created_day
        self._by_id[incident_id] = row
        self._entries.append(
            VectorEntry(
                incident_id=incident_id,
                vector=self._matrix[row],
                created_day=created_day,
                category=category,
                text=text,
            )
        )

    def add_many(
        self,
        incident_ids: Sequence[str],
        vectors: np.ndarray,
        created_days: Sequence[float],
        categories: Sequence[str],
        texts: Optional[Sequence[str]] = None,
    ) -> None:
        """Bulk insert: one capacity check and one block write for the batch."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D (batch, dim) array")
        count = vectors.shape[0]
        if not (len(incident_ids) == count == len(created_days) == len(categories)):
            raise ValueError("incident_ids, vectors, created_days and categories must align")
        if texts is not None and len(texts) != count:
            raise ValueError("texts must align with incident_ids")
        if count == 0:
            return
        seen: set = set()
        for incident_id in incident_ids:
            if incident_id in self._by_id or incident_id in seen:
                raise ValueError(f"duplicate incident id in vector store: {incident_id}")
            seen.add(incident_id)
        if self.dim is None:
            self.dim = vectors.shape[1]
        elif vectors.shape[1] != self.dim:
            raise ValueError(
                f"vector dimension {vectors.shape[1]} does not match store dimension {self.dim}"
            )
        self._ensure_capacity(count)
        start = len(self._entries)
        self._matrix[start : start + count] = vectors
        self._days[start : start + count] = np.asarray(created_days, dtype=np.float64)
        for offset, incident_id in enumerate(incident_ids):
            row = start + offset
            self._by_id[incident_id] = row
            self._entries.append(
                VectorEntry(
                    incident_id=incident_id,
                    vector=self._matrix[row],
                    created_day=float(created_days[offset]),
                    category=categories[offset],
                    text=texts[offset] if texts is not None else "",
                )
            )

    # ------------------------------------------------------------------ update
    def update_category(self, incident_id: str, category: str) -> None:
        """Change the stored category of an incident (OCE feedback path)."""
        index = self._by_id.get(incident_id)
        if index is None:
            raise KeyError(f"unknown incident id in vector store: {incident_id}")
        self._entries[index].category = category

    # -------------------------------------------------------------------- read
    def get(self, incident_id: str) -> Optional[VectorEntry]:
        """Fetch an entry by incident id."""
        index = self._by_id.get(incident_id)
        return None if index is None else self._entries[index]

    def index_of(self, incident_id: str) -> Optional[int]:
        """Row index of an incident id (aligned with :meth:`matrix`), or None."""
        return self._by_id.get(incident_id)

    def entries(self) -> List[VectorEntry]:
        """All entries in insertion order."""
        return list(self._entries)

    def categories(self) -> List[str]:
        """Distinct categories present in the store."""
        return sorted({entry.category for entry in self._entries})

    def matrix(self) -> np.ndarray:
        """All vectors stacked row-wise (a view of the pre-allocated buffer)."""
        if self._matrix is None or not self._entries:
            return np.zeros((0, self.dim or 0))
        return self._matrix[: len(self._entries)]

    def created_days(self) -> np.ndarray:
        """Creation days of all entries, aligned with :meth:`matrix` rows."""
        if self._days is None or not self._entries:
            return np.zeros(0)
        return self._days[: len(self._entries)]

    def squared_norms(self) -> np.ndarray:
        """``|v|^2`` of every stored vector, aligned with :meth:`matrix` rows.

        Cached incrementally: only rows added since the last call are
        computed, so repeated scoring passes never re-reduce the whole
        history.
        """
        size = len(self._entries)
        if size == 0:
            return np.zeros(0)
        if self._sq_norms is None or self._sq_norms.shape[0] < size:
            fresh = np.einsum(
                "ij,ij->i", self._matrix[self._sq_norms_size : size],
                self._matrix[self._sq_norms_size : size],
            )
            if self._sq_norms is None or self._sq_norms_size == 0:
                self._sq_norms = fresh
            else:
                self._sq_norms = np.concatenate(
                    [self._sq_norms[: self._sq_norms_size], fresh]
                )
            self._sq_norms_size = size
        return self._sq_norms[:size]

    @classmethod
    def wrap(
        cls,
        matrix: np.ndarray,
        created_days: np.ndarray,
        sq_norms: np.ndarray,
        incident_ids: Sequence[str],
        categories: Sequence[str],
        texts: Sequence[str],
    ) -> "VectorStore":
        """Adopt externally owned row arrays without copying them.

        The zero-copy load path: ``matrix`` / ``created_days`` /
        ``sq_norms`` (typically memory-mapped segment views) become the
        store's backing buffers directly, and every entry's ``vector`` is a
        view into ``matrix``.  Capacity equals the row count, so the first
        subsequent insert re-allocates into a private (writable) buffer —
        copy-on-grow semantics that keep read-only mappings safe.
        """
        rows = int(matrix.shape[0])
        if not (rows == len(created_days) == len(sq_norms)
                == len(incident_ids) == len(categories) == len(texts)):
            raise ValueError("wrapped arrays and metadata must align")
        store = cls(dim=int(matrix.shape[1]) if rows else None)
        if rows == 0:
            return store
        store._matrix = matrix
        store._days = created_days
        store._sq_norms = sq_norms
        store._sq_norms_size = rows
        store._by_id = dict(zip(incident_ids, range(rows)))
        if len(store._by_id) != rows:
            raise ValueError("duplicate incident id in wrapped metadata")
        # Iterating the matrix yields its row views; one C-level pass builds
        # the entries (this loop is most of what a load costs).
        store._entries = list(
            map(VectorEntry, incident_ids, matrix, created_days.tolist(), categories, texts)
        )
        return store

    # ------------------------------------------------------------- persistence
    def save(self, path: str) -> None:
        """Persist the store to ``path`` (``.npz``: vectors + JSON metadata)."""
        metadata = json.dumps(
            [
                {
                    "incident_id": entry.incident_id,
                    "category": entry.category,
                    "text": entry.text,
                }
                for entry in self._entries
            ]
        )
        path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez_compressed(
            path,
            matrix=self.matrix(),
            created_days=self.created_days(),
            metadata=np.array(metadata),
        )

    @classmethod
    def load(cls, path: str) -> "VectorStore":
        """Load a store previously written by :meth:`save`.

        Accepts either a ``str`` or a :class:`pathlib.Path` (anything
        implementing ``__fspath__``), matching what :meth:`save` accepts.
        """
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path = path + ".npz"
        with np.load(path, allow_pickle=False) as archive:
            matrix = archive["matrix"]
            days = archive["created_days"]
            metadata = json.loads(str(archive["metadata"]))
        store = cls(dim=int(matrix.shape[1]) if matrix.size else None)
        store.add_many(
            incident_ids=[item["incident_id"] for item in metadata],
            vectors=matrix,
            created_days=[float(day) for day in days],
            categories=[item["category"] for item in metadata],
            texts=[item["text"] for item in metadata],
        )
        return store
