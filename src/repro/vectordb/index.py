"""The retrieval protocol of the prediction stage.

``VectorIndex`` is the contract the prediction stage retrieves through: an
append-only store of labelled incident embeddings that can be searched with
the paper's temporal-decay similarity, corrected in place on OCE feedback,
persisted, and introspected.  Two implementations ship:

* :class:`FlatVectorIndex` — the original single-matrix layout
  (:class:`~repro.vectordb.store.VectorStore` scored by
  :class:`~repro.vectordb.knn.NearestNeighborSearch`), exact and simple;
* :class:`~repro.vectordb.sharded.ShardedVectorIndex` — the same entries
  partitioned into time-window shards so retrieval at multi-100k histories
  scans only temporally relevant shards (and prunes the rest with an exact
  score bound) while returning *identical* results.

``build_index`` constructs an implementation by name and ``load_index``
re-opens a persisted index of either layout.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Protocol, Sequence, Set, runtime_checkable

import numpy as np

from .knn import NearestNeighborSearch, Neighbor
from .similarity import SimilarityConfig
from .store import VectorEntry, VectorStore

#: Manifest file name marking a sharded index directory.
SHARDED_MANIFEST = "manifest.json"


@runtime_checkable
class VectorIndex(Protocol):
    """What the prediction stage needs from a retrieval index.

    Implementations must guarantee that ``search``/``search_many`` return
    neighbours identical to a brute-force scan of every stored entry with the
    configured :class:`SimilarityConfig` — layout choices (sharding, pruning,
    caching) are invisible to callers.
    """

    similarity: SimilarityConfig

    @property
    def dim(self) -> Optional[int]:
        """Embedding dimensionality (None until the first insert)."""
        ...

    def __len__(self) -> int: ...

    def __contains__(self, incident_id: str) -> bool: ...

    def get(self, incident_id: str) -> Optional[VectorEntry]:
        """Fetch one stored entry by incident id."""
        ...

    def categories(self) -> List[str]:
        """Distinct categories present in the index (sorted)."""
        ...

    def add(
        self,
        incident_id: str,
        vector: np.ndarray,
        created_day: float,
        category: str,
        text: str = "",
    ) -> None:
        """Insert one labelled incident embedding."""
        ...

    def add_many(
        self,
        incident_ids: Sequence[str],
        vectors: np.ndarray,
        created_days: Sequence[float],
        categories: Sequence[str],
        texts: Optional[Sequence[str]] = None,
    ) -> None:
        """Bulk-insert a batch of labelled incident embeddings."""
        ...

    def update_category(self, incident_id: str, category: str) -> None:
        """Correct a stored category in place; KeyError on unknown ids."""
        ...

    def search(
        self,
        query_vector: np.ndarray,
        query_day: float,
        k: Optional[int] = None,
        exclude_ids: Optional[Set[str]] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[Neighbor]:
        """Top-K neighbours of one query."""
        ...

    def search_many(
        self,
        query_matrix: np.ndarray,
        query_days: Sequence[float],
        k: Optional[int] = None,
        exclude_ids: Optional[Sequence[Optional[Set[str]]]] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[List[Neighbor]]:
        """Top-K neighbours for a whole query batch."""
        ...

    def save(self, path: str) -> None:
        """Persist the index to ``path``."""
        ...

    def stats(self) -> Dict[str, float]:
        """Layout and scan statistics (sizes, scanned-shard ratios, ...)."""
        ...


class FlatVectorIndex:
    """The original single-matrix index behind the :class:`VectorIndex` protocol.

    A thin adapter: storage is one :class:`VectorStore`, scoring one
    matrix–matrix pass through :class:`NearestNeighborSearch`.  Results are
    bit-for-bit what the pre-protocol code produced.
    """

    backend = "flat"

    def __init__(
        self,
        similarity: Optional[SimilarityConfig] = None,
        store: Optional[VectorStore] = None,
    ) -> None:
        self.store = store or VectorStore()
        self._search = NearestNeighborSearch(self.store, similarity or SimilarityConfig())
        self._queries = 0
        self._entries_scanned = 0
        self._entries_considered = 0
        self._saves = 0
        self._save_bytes_written = 0

    # --------------------------------------------------------------- protocol
    @property
    def similarity(self) -> SimilarityConfig:
        """The similarity configuration used for scoring and selection."""
        return self._search.config

    @similarity.setter
    def similarity(self, config: SimilarityConfig) -> None:
        self._search.config = config

    @property
    def dim(self) -> Optional[int]:
        """Embedding dimensionality (None until the first insert)."""
        return self.store.dim

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, incident_id: str) -> bool:
        return incident_id in self.store

    def get(self, incident_id: str) -> Optional[VectorEntry]:
        """Fetch one stored entry by incident id."""
        return self.store.get(incident_id)

    def categories(self) -> List[str]:
        """Distinct categories present in the index (sorted)."""
        return self.store.categories()

    def add(
        self,
        incident_id: str,
        vector: np.ndarray,
        created_day: float,
        category: str,
        text: str = "",
    ) -> None:
        """Insert one labelled incident embedding."""
        self.store.add(incident_id, vector, created_day, category, text=text)

    def add_many(
        self,
        incident_ids: Sequence[str],
        vectors: np.ndarray,
        created_days: Sequence[float],
        categories: Sequence[str],
        texts: Optional[Sequence[str]] = None,
    ) -> None:
        """Bulk-insert a batch of labelled incident embeddings."""
        self.store.add_many(incident_ids, vectors, created_days, categories, texts=texts)

    def update_category(self, incident_id: str, category: str) -> None:
        """Correct a stored category in place; KeyError on unknown ids."""
        self.store.update_category(incident_id, category)

    def search(
        self,
        query_vector: np.ndarray,
        query_day: float,
        k: Optional[int] = None,
        exclude_ids: Optional[Set[str]] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[Neighbor]:
        """Top-K neighbours of one query (full scan of the single matrix)."""
        return self.search_many(
            np.asarray(query_vector, dtype=np.float64).reshape(1, -1),
            np.array([query_day], dtype=np.float64),
            k=k,
            exclude_ids=[exclude_ids] if exclude_ids is not None else None,
            history_before_day=history_before_day,
            categories=categories,
        )[0]

    def search_many(
        self,
        query_matrix: np.ndarray,
        query_days: Sequence[float],
        k: Optional[int] = None,
        exclude_ids: Optional[Sequence[Optional[Set[str]]]] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[List[Neighbor]]:
        """Top-K neighbours for a whole query batch (one scoring pass)."""
        queries = np.asarray(query_matrix, dtype=np.float64)
        if queries.ndim == 2:
            self._queries += queries.shape[0]
            self._entries_considered += queries.shape[0] * len(self.store)
        groups_before = self._search.scored_groups
        results = self._search.search_many(
            queries,
            query_days,
            k=k,
            exclude_ids=exclude_ids,
            history_before_day=history_before_day,
            categories=categories,
        )
        # Deduplicated in-batch queries share one scoring pass; count only
        # the (group, entry) pairs actually scored, like the sharded backend.
        self._entries_scanned += (
            self._search.scored_groups - groups_before
        ) * len(self.store)
        return results

    # ------------------------------------------------------------ persistence
    def save(self, path: str) -> None:
        """Persist to one ``.npz`` file (the :meth:`VectorStore.save` format)."""
        self.store.save(path)
        path = os.fspath(path)
        self._saves += 1
        self._save_bytes_written += os.path.getsize(
            path if path.endswith(".npz") else path + ".npz"
        )

    @classmethod
    def load(
        cls, path: str, similarity: Optional[SimilarityConfig] = None
    ) -> "FlatVectorIndex":
        """Re-open an index written by :meth:`save`."""
        return cls(similarity=similarity, store=VectorStore.load(path))

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        """Layout/scan statistics; a flat index always scans its one shard.

        ``entries_scanned`` counts the (query group, entry) pairs actually
        scored — in-batch duplicate queries share one scoring pass — so the
        scan ratios are comparable with the sharded backend's.
        """
        entries = len(self.store)
        return {
            "entries": float(entries),
            "shard_count": 1.0,
            "max_shard_size": float(entries),
            "median_shard_size": float(entries),
            "compactions": 0.0,
            "shards_merged": 0.0,
            "shards_split": 0.0,
            "saves": float(self._saves),
            "save_shards_written": float(self._saves),
            "save_bytes_written": float(self._save_bytes_written),
            "queries": float(self._queries),
            "shards_considered": float(self._queries),
            "shards_scanned": float(self._search.scored_groups),
            "shards_pruned": 0.0,
            "shards_skipped": 0.0,
            "entries_scanned": float(self._entries_scanned),
            "scanned_shard_ratio": (
                self._search.scored_groups / self._queries if self._queries else 0.0
            ),
            "scanned_entry_ratio": (
                self._entries_scanned / self._entries_considered
                if self._entries_considered
                else 0.0
            ),
        }


def build_index(
    backend: str,
    similarity: Optional[SimilarityConfig] = None,
    window_days: Optional[float] = None,
    compaction: Optional["CompactionPolicy"] = None,  # noqa: F821 - sharded-only
) -> VectorIndex:
    """Construct a retrieval index implementation by backend name.

    Args:
        backend: ``"sharded"`` (time-window shards with exact bound-based
            pruning — the default backend) or ``"flat"`` (single matrix).
        similarity: Scoring/selection configuration shared by both backends.
        window_days: Time-window width of each shard (sharded backend only);
            defaults to :data:`~repro.vectordb.sharded.DEFAULT_WINDOW_DAYS`.
        compaction: Merge/split thresholds and the auto-trigger policy of
            the sharded backend (:class:`~repro.vectordb.CompactionPolicy`).
    """
    if backend == "flat":
        return FlatVectorIndex(similarity=similarity)
    if backend == "sharded":
        from .sharded import DEFAULT_WINDOW_DAYS, ShardedVectorIndex

        return ShardedVectorIndex(
            similarity=similarity,
            window_days=DEFAULT_WINDOW_DAYS if window_days is None else window_days,
            compaction=compaction,
        )
    raise ValueError(f"unknown index backend: {backend!r} (expected 'flat' or 'sharded')")


def load_index(
    path: str,
    similarity: Optional[SimilarityConfig] = None,
    compaction: Optional["CompactionPolicy"] = None,  # noqa: F821 - sharded-only
) -> VectorIndex:
    """Re-open a persisted index, dispatching on its on-disk layout.

    A sharded index is a directory holding a ``manifest.json`` (version 4)
    beside the per-shard segment files and the codes file it names, each
    segment memory-mapped; a flat index is a single ``.npz`` file.  The
    compaction policy is a runtime knob, not persisted, so a sharded reload
    must be handed it again (a flat index ignores it).
    """
    path = os.fspath(path)
    if os.path.isdir(path) and os.path.exists(os.path.join(path, SHARDED_MANIFEST)):
        from .sharded import ShardedVectorIndex

        return ShardedVectorIndex.load(
            path,
            similarity=similarity,
            compaction=compaction,
        )
    return FlatVectorIndex.load(path, similarity=similarity)
