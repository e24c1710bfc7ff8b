"""The record the "Embedding vector DB" box of Figure 4 keeps per incident.

One embedding per historical incident together with the metadata the
similarity formula and the prompt construction need (creation day,
category, summary text): :class:`VectorEntry`, built on demand from the
columns a shard of :class:`~repro.vectordb.sharded.ShardedVectorIndex`
keeps, and :func:`validate_batch`, the checks every insert runs first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


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
