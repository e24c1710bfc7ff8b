"""Vector database: embedding store, similarity formula and the retrieval layer.

Retrieval goes through the :class:`VectorIndex` protocol, implemented by
the time-window sharded index (:class:`ShardedVectorIndex`): it returns the
neighbours a brute-force scan of every entry would, prunes temporally
irrelevant shards with an exact score bound, folds each scored shard into a
batch-major scan state in one step, self-compacts skewed layouts
(:class:`CompactionPolicy`) and persists as immutable mmap-able per-shard
segments under one manifest (:mod:`~repro.vectordb.shardmem`, manifest v4).
"""

from .index import VectorIndex, load_index
from .knn import Neighbor, select_complete_order
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
from .store import VectorEntry

__all__ = [
    "VectorIndex",
    "load_index",
    "Neighbor",
    "select_complete_order",
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
]
