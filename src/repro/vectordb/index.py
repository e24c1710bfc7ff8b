"""The retrieval protocol of the prediction stage.

``VectorIndex`` is the contract the prediction stage retrieves through: an
append-only store of labelled incident embeddings that can be searched with
the paper's temporal-decay similarity, corrected in place on OCE feedback,
persisted, and introspected.  One implementation ships,
:class:`~repro.vectordb.sharded.ShardedVectorIndex`: entries partitioned
into time-window shards so retrieval at multi-100k histories scans only
temporally relevant shards (and prunes the rest with an exact score bound)
while returning exactly what a brute-force scan of every entry returns.

``load_index`` re-opens a persisted index.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Set, runtime_checkable

import numpy as np

from .knn import Neighbor
from .sharded import CompactionPolicy, ShardedVectorIndex
from .similarity import SimilarityConfig
from .store import VectorEntry


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


def load_index(
    path: str,
    similarity: Optional[SimilarityConfig] = None,
    compaction: Optional[CompactionPolicy] = None,
) -> VectorIndex:
    """Re-open an index written by :meth:`ShardedVectorIndex.save`.

    The snapshot is a directory holding a ``manifest.json`` (version 4)
    beside the per-shard segment files and the codes file it names, each
    segment memory-mapped.  The compaction policy is a runtime knob, not
    persisted, so a reload must be handed it again.  Anything else at
    ``path`` — a retired manifest version, or a single ``.npz`` file as
    the single-matrix index once wrote — raises
    :class:`~repro.core.errors.IndexCorruptionError`.
    """
    return ShardedVectorIndex.load(path, similarity=similarity, compaction=compaction)
