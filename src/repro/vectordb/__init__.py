"""Vector database: embedding store, similarity formula and the retrieval layer.

Retrieval is pluggable behind the :class:`VectorIndex` protocol: the flat
single-matrix index (:class:`FlatVectorIndex`) and the time-window sharded
index (:class:`ShardedVectorIndex`) return identical neighbours; the sharded
layout additionally prunes temporally irrelevant shards with an exact score
bound, folds each scored shard into a batch-major scan state in one step,
self-compacts skewed layouts (:class:`CompactionPolicy`) and persists as
immutable mmap-able per-shard segments under one manifest
(:mod:`~repro.vectordb.shardmem`, manifest v4).
"""

from .index import (
    FlatVectorIndex,
    VectorIndex,
    build_index,
    load_index,
)
from .knn import NearestNeighborSearch, Neighbor, select_complete_order
from .namespaces import NamespacedIndexMap
from .sharded import (
    DEFAULT_WINDOW_DAYS,
    CompactionPolicy,
    ShardedVectorIndex,
    time_bucket,
)
from .similarity import (
    DEFAULT_ALPHA,
    DEFAULT_K,
    SimilarityConfig,
    euclidean_distance,
    similarity,
    temporal_decay,
)
from .store import VectorEntry, VectorStore

__all__ = [
    "FlatVectorIndex",
    "VectorIndex",
    "build_index",
    "load_index",
    "NearestNeighborSearch",
    "Neighbor",
    "select_complete_order",
    "NamespacedIndexMap",
    "DEFAULT_WINDOW_DAYS",
    "CompactionPolicy",
    "ShardedVectorIndex",
    "time_bucket",
    "DEFAULT_ALPHA",
    "DEFAULT_K",
    "SimilarityConfig",
    "euclidean_distance",
    "similarity",
    "temporal_decay",
    "VectorEntry",
    "VectorStore",
]
