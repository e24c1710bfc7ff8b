"""Embedding vector store for historical incidents.

The "Embedding vector DB" box of Figure 4: it keeps one embedding per
historical incident together with the metadata the similarity formula and
the prompt construction need (creation day, category, summary text).

The store is built for an always-on deployment ingesting a continuous
stream of labelled incidents: vectors live in one pre-allocated buffer that
grows geometrically, so ``add`` is amortized O(d) instead of re-stacking the
whole history, and a row is corrected in place with
:meth:`update_category` when on-call engineers confirm a different
root-cause label.  Each shard of the sharded index is one store; the index
persists them (:meth:`~repro.vectordb.sharded.ShardedVectorIndex.save`)
and re-opens them with :meth:`VectorStore.wrap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .scoring import rejected, snap

#: Initial capacity (rows) of the pre-allocated row buffer.
_INITIAL_CAPACITY = 64


@dataclass
class VectorEntry:
    """One stored incident embedding with its retrieval metadata."""

    incident_id: str
    vector: np.ndarray
    created_day: float
    category: str
    text: str = ""


def validate_batch(
    incident_ids: Sequence[str],
    vectors: np.ndarray,
    created_days: Sequence[float],
    categories: Sequence[str],
    texts: Optional[Sequence[str]],
    stored: Dict[str, int],
    dim: Optional[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """A batch's vectors and creation days as float64 arrays, once it passes every check.

    ``ValueError`` for a batch that is not 2-D or not aligned, that repeats
    an id or reuses one in ``stored``, that has a NaN or infinite creation
    day, or whose rows are not ``dim`` wide; a bad id or day is named, the
    first in batch order.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a 2-D (batch, dim) array")
    count = vectors.shape[0]
    if not (len(incident_ids) == count == len(created_days) == len(categories)):
        raise ValueError("incident_ids, vectors, created_days and categories must align")
    if texts is not None and len(texts) != count:
        raise ValueError("texts must align with incident_ids")
    # One set test passes a clean batch; only a rejected one is walked.
    batch = set(incident_ids)
    if len(batch) != count or not stored.keys().isdisjoint(batch):
        seen: set = set()
        for incident_id in incident_ids:
            if incident_id in stored or incident_id in seen:
                raise ValueError(f"duplicate incident id in vector store: {incident_id}")
            seen.add(incident_id)
    days = np.asarray(created_days, dtype=np.float64)
    finite = np.isfinite(days)
    if not finite.all():
        raise ValueError(
            f"non-finite creation day in vector store: {incident_ids[int(np.argmin(finite))]}"
        )
    if count and dim is not None and vectors.shape[1] != dim:
        raise ValueError(
            f"vector dimension {vectors.shape[1]} does not match store dimension {dim}"
        )
    return vectors, days


class VectorStore:
    """An in-memory store of incident embeddings, kept as columns.

    Each vector is snapped to the scoring grid (:func:`.scoring.snap`) and
    kept as one ``[x, |x|^2, 1]`` row of a pre-allocated ``(capacity,
    dim + 2)`` buffer that doubles in capacity when full, so brute-force
    scoring of a query (or a whole batch of queries) against the history is
    a single product and ``add`` never re-stacks previously stored rows.
    :meth:`matrix` and :meth:`squared_norms` are views of that buffer.
    Creation days are an array aligned with its rows; ids, categories and
    texts are plain lists.

    No per-row object is kept: :meth:`entry` (and :meth:`get`,
    :meth:`entries`, iteration) builds a :class:`VectorEntry` on demand, a
    snapshot of the row at that moment.  A later :meth:`update_category`
    shows in the next entry built for the row, not in one already handed
    out.
    """

    def __init__(self, dim: Optional[int] = None) -> None:
        self.dim = dim
        self._ids: List[str] = []
        self._categories: List[str] = []
        self._texts: List[str] = []
        self._by_id: Dict[str, int] = {}  # read through _rows()
        self._buffer: Optional[np.ndarray] = None  # capacity x (dim + 2): [x, |x|^2, 1]
        self._days: Optional[np.ndarray] = None    # capacity, aligned with the buffer rows
        self._source: Optional[np.ndarray] = None  # wrapped rows not yet in the buffer

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[VectorEntry]:
        return map(self.entry, range(len(self._ids)))

    def __contains__(self, incident_id: str) -> bool:
        return incident_id in self._rows()

    def _rows(self) -> Dict[str, int]:
        """The id → row dict, first caught up with the rows appended since.

        Appends leave it behind, so a store that is filled in bulk and
        never asked for an id (most shards of a sharded index) never builds
        it.
        """
        indexed = len(self._by_id)
        if indexed < len(self._ids):
            self._by_id.update(zip(self._ids[indexed:], range(indexed, len(self._ids))))
        return self._by_id

    def _block(self) -> Optional[np.ndarray]:
        """The row buffer, first built from wrapped rows if :meth:`wrap` left some."""
        if self._source is not None:
            source, self._source = self._source, None
            self._buffer = np.empty((source.shape[0], source.shape[1] + 2))
            snap(source, self._buffer)
        return self._buffer

    # ------------------------------------------------------------------ insert
    def _reserve(self, count: int, dim: int) -> np.ndarray:
        """The buffer block the next ``count`` rows will occupy, grown to fit.

        Rows written there stay invisible until :meth:`_commit` stores them.
        """
        if self.dim is None:
            self.dim = dim
        size = len(self._ids)
        needed = size + count
        buffer = self._block()
        if buffer is None:
            capacity = max(_INITIAL_CAPACITY, needed)
            self._buffer = np.zeros((capacity, self.dim + 2), dtype=np.float64)
            self._days = np.zeros(capacity, dtype=np.float64)
        elif needed > buffer.shape[0]:
            capacity = buffer.shape[0]
            while capacity < needed:
                capacity *= 2
            self._buffer = np.zeros((capacity, self.dim + 2), dtype=np.float64)
            self._buffer[:size] = buffer[:size]
            grown_days = np.zeros(capacity, dtype=np.float64)
            grown_days[:size] = self._days[:size]
            self._days = grown_days
        return self._buffer[size:needed]

    def add(
        self,
        incident_id: str,
        vector: np.ndarray,
        created_day: float,
        category: str,
        text: str = "",
    ) -> None:
        """Add one incident embedding; ids must be unique.

        Amortized cost is one row write — the backing buffer is pre-allocated
        and doubles when full, so no existing rows are copied on the hot path.
        """
        self.add_many(
            [incident_id],
            np.asarray(vector, dtype=np.float64).reshape(1, -1),
            [created_day],
            [category],
            [text],
        )

    def add_many(
        self,
        incident_ids: Sequence[str],
        vectors: np.ndarray,
        created_days: Sequence[float],
        categories: Sequence[str],
        texts: Optional[Sequence[str]] = None,
    ) -> None:
        """Bulk insert: one capacity check and one block write per column.

        ``ValueError`` for a batch :func:`validate_batch` rejects, or with
        the first id whose vector :func:`.scoring.snap` refuses; either way
        the store is left as it was.
        """
        vectors, days = validate_batch(
            incident_ids, vectors, created_days, categories, texts, self._rows(), self.dim
        )
        count = vectors.shape[0]
        if count:
            dim = self.dim
            refused = snap(vectors, self._reserve(count, vectors.shape[1]))
            if refused is not None:
                if not self._ids:  # a refused first batch fixes no shape
                    self.dim, self._buffer, self._days = dim, None, None
                raise rejected(vectors[refused], f"in vector store: {incident_ids[refused]}")
            self._commit(incident_ids, days, categories, texts)

    def _commit(self, incident_ids, created_days, categories, texts, rows=None) -> None:
        """Store the rows :meth:`_reserve` handed out, with their other columns.

        ``created_days`` are the batch's days; ``rows`` picks the committed
        rows' days from them (all, in order, when None).
        """
        count = len(incident_ids)
        start = len(self._ids)
        days = self._days[start : start + count]
        if rows is None:
            days[:] = created_days
        else:  # "clip": under the default "raise" numpy buffers ``out``
            np.take(created_days, rows, out=days, mode="clip")
        self._ids.extend(incident_ids)
        self._categories.extend(categories)
        self._texts.extend([""] * count if texts is None else texts)

    # ------------------------------------------------------------------ update
    def update_category(self, incident_id: str, category: str) -> None:
        """Change the stored category of an incident (OCE feedback path)."""
        index = self._rows().get(incident_id)
        if index is None:
            raise KeyError(f"unknown incident id in vector store: {incident_id}")
        self._categories[index] = category

    # -------------------------------------------------------------------- read
    def entry(self, row: int) -> VectorEntry:
        """A snapshot of one row (aligned with :meth:`matrix`) as an entry."""
        return VectorEntry(
            incident_id=self._ids[row],
            vector=self._block()[row, : self.dim],
            created_day=float(self._days[row]),
            category=self._categories[row],
            text=self._texts[row],
        )

    def get(self, incident_id: str) -> Optional[VectorEntry]:
        """Fetch an entry by incident id."""
        index = self._rows().get(incident_id)
        return None if index is None else self.entry(index)

    def index_of(self, incident_id: str) -> Optional[int]:
        """Row index of an incident id (aligned with :meth:`matrix`), or None."""
        return self._rows().get(incident_id)

    def entries(self) -> List[VectorEntry]:
        """All entries in insertion order."""
        return list(self)

    def categories(self) -> List[str]:
        """Distinct categories present in the store."""
        return sorted(set(self._categories))

    def augmented(self) -> np.ndarray:
        """Every stored ``[x, |x|^2, 1]`` row: :func:`.scoring.score_block`'s block."""
        buffer = self._block()
        if buffer is None or not self._ids:
            return np.zeros((0, (self.dim or 0) + 2))
        return buffer[: len(self._ids)]

    def matrix(self) -> np.ndarray:
        """All (snapped) vectors stacked row-wise: a view of the row buffer."""
        return self.augmented()[:, : self.dim or 0]

    def created_days(self) -> np.ndarray:
        """Creation days of all entries, aligned with :meth:`matrix` rows."""
        if self._days is None or not self._ids:
            return np.zeros(0)
        return self._days[: len(self._ids)]

    def squared_norms(self) -> np.ndarray:
        """``|x|^2`` of every stored vector, aligned with :meth:`matrix` rows (a view)."""
        return self.augmented()[:, self.dim or 0]

    @classmethod
    def wrap(
        cls,
        matrix: np.ndarray,
        created_days: np.ndarray,
        incident_ids: List[str],
        categories: List[str],
        texts: List[str],
    ) -> "VectorStore":
        """Adopt externally owned rows and metadata lists.

        The load path: ``matrix`` and ``created_days`` are typically
        memory-mapped segment views.  The three lists become the store's
        columns and ``created_days`` its days buffer, uncopied (the store
        owns them from here on).  ``matrix`` is snapped into a private row
        buffer, its squared norms recomputed, on the store's first read of
        a vector, so a mapping's pages fault in only when something scores
        or reads the rows.  Capacity equals the row count, so the first
        subsequent insert re-allocates the days into a private (writable)
        buffer — copy-on-grow semantics that keep read-only mappings safe.
        """
        rows = int(matrix.shape[0])
        if not (rows == len(created_days) == len(incident_ids) == len(categories) == len(texts)):
            raise ValueError("wrapped arrays and metadata must align")
        store = cls(dim=int(matrix.shape[1]) if rows else None)
        if rows == 0:
            return store
        store._source = matrix
        store._days = created_days
        store._by_id = dict(zip(incident_ids, range(rows)))
        if len(store._by_id) != rows:
            raise ValueError("duplicate incident id in wrapped metadata")
        store._ids, store._categories, store._texts = incident_ids, categories, texts
        return store
