"""Service seams of the decomposed pipeline.

The monolithic pipeline hides three in-process services that a multi-tenant
deployment needs to address separately: the ingestion front (bounded queue
+ micro-batch window), the collection substrate (handler execution on a
worker pool), and the retrieval layer (the embedding index).  These
``Protocol`` interfaces name those seams explicitly — the existing
implementations (:class:`~repro.core.streaming.StreamIngestor`,
:class:`~repro.core.collect_pool.CollectionPool`, any
:class:`~repro.vectordb.VectorIndex`) satisfy them structurally, with no
inheritance and no adapter layer, and the
:class:`~repro.tenancy.TenantRouter` composes one of each per deployment:
one shared :class:`CollectService`, one :class:`RetrievalService` namespace
per tenant, one :class:`IngestService` front routing between them.

Every interface exposes a ``stats_dict`` rollup so operators can read each
service's health through one shape regardless of the implementation behind
the seam.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    import numpy as np

    from ..monitors import Alert
    from ..vectordb import Neighbor


@runtime_checkable
class IngestService(Protocol):
    """The streaming front: bounded submission + micro-batch flushing.

    Satisfied by :class:`~repro.core.streaming.StreamIngestor` (and its
    tenant-routing subclass).  ``submit`` returns a future resolving to the
    alert's diagnosis report; ``flush`` synchronously drains whatever is
    queued (manual drive mode); ``stop`` tears the worker down after a
    final drain.
    """

    def submit(self, alert: "Alert") -> "Future": ...

    def submit_many(self, alerts: Sequence["Alert"]) -> List["Future"]: ...

    def flush(self, reason: str = "manual") -> list: ...

    def start(self) -> "IngestService": ...

    def stop(self, flush: bool = True) -> None: ...

    def stats_dict(self) -> Dict[str, float]: ...


@runtime_checkable
class CollectService(Protocol):
    """The collection substrate: parse + handler execution for a batch.

    Satisfied by :class:`~repro.core.collect_pool.CollectionPool`.  ``run``
    collects one micro-batch against pre-reserved incident ids and returns
    per-alert outcomes in submission order; ``resize`` retargets the worker
    pool at a batch boundary.
    """

    def run(self, alerts: Sequence["Alert"], incident_ids: Sequence[str]) -> list: ...

    def resize(self, workers: Optional[int]) -> None: ...

    def close(self) -> None: ...

    def stats_dict(self) -> Dict[str, float]: ...


@runtime_checkable
class RetrievalService(Protocol):
    """The retrieval layer: vector insertions and neighbour search.

    The query surface of :class:`~repro.vectordb.VectorIndex`, which
    :class:`~repro.vectordb.ShardedVectorIndex` satisfies.  The tenant
    router holds one retrieval namespace per tenant
    (:class:`~repro.vectordb.NamespacedIndexMap`), each namespace an
    independent ``RetrievalService``.
    """

    def __len__(self) -> int: ...

    def add_many(
        self,
        incident_ids: Sequence[str],
        vectors: "np.ndarray",
        categories: Sequence[str],
        timestamps: Sequence[float],
    ) -> None: ...

    def update_category(self, incident_id: str, category: str) -> None: ...

    def search_many(
        self,
        vectors: "np.ndarray",
        days: Sequence[float],
        k: Optional[int] = None,
        exclude_ids: Optional[Sequence[Optional[str]]] = None,
        history_before_day: Optional[Sequence[Optional[float]]] = None,
    ) -> List[List["Neighbor"]]: ...

    def stats(self) -> Dict[str, float]: ...
