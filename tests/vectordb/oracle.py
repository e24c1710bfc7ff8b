"""A brute-force retrieval oracle: the reference the sharded index must match.

It keeps every entry in insertion order, snapped onto the scoring grid with
``scoring.snap`` as one ``[x, |x|^2, 1]`` column of a dim-major block, and
answers a search by scoring the whole history as that one block with
``scoring.score_block``, ordering the eligible rows by
``(-score, insertion order)`` and picking with ``select_complete_order``.
No shards, bounds, floors or pools: nothing it could share a bug with the
scan under test.  Every score is exact, so the sharded index must match its
ids *and* similarity bits.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.vectordb import Neighbor, SimilarityConfig, VectorEntry, select_complete_order
from repro.vectordb.scoring import augment_queries, rejected, score_block, snap


class OracleIndex:
    """``add_many``/``update_category``/``search_many`` over one scored block."""

    def __init__(self, similarity: Optional[SimilarityConfig] = None) -> None:
        self.similarity = similarity or SimilarityConfig()
        self.block = np.zeros((0, 0))  # one snapped [x, |x|^2, 1] column per entry
        self.days = np.zeros(0)
        self.ids: List[str] = []
        self.labels: List[str] = []
        self.texts: List[str] = []

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, incident_id: str) -> bool:
        return incident_id in self.ids

    def add_many(self, incident_ids, vectors, created_days, categories, texts=None) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        columns = np.empty((vectors.shape[1] + 2, vectors.shape[0]))
        refused = snap(vectors, columns)
        if refused is not None:
            raise rejected(vectors[refused], f"in oracle: {incident_ids[refused]}")
        self.block = np.concatenate([self.block, columns], axis=1) if self.ids else columns
        self.days = np.concatenate([self.days, np.asarray(created_days, dtype=np.float64)])
        self.ids += list(incident_ids)
        self.labels += list(categories)
        self.texts += [""] * len(incident_ids) if texts is None else list(texts)

    def add(self, incident_id, vector, created_day, category, text="") -> None:
        vectors = np.reshape(vector, (1, -1))
        self.add_many([incident_id], vectors, [created_day], [category], [text])

    def update_category(self, incident_id: str, category: str) -> None:
        if incident_id not in self.ids:
            raise KeyError(incident_id)
        self.labels[self.ids.index(incident_id)] = category

    def search(self, query_vector, query_day, k=None, exclude_ids=None, **filters):
        excludes = None if exclude_ids is None else [exclude_ids]
        query = np.reshape(query_vector, (1, -1))
        return self.search_many(query, [query_day], k, excludes, **filters)[0]

    def search_many(self, query_matrix, query_days, k=None, exclude_ids=None,
                    history_before_day=None, categories=None) -> List[List[Neighbor]]:
        queries = np.asarray(query_matrix, dtype=np.float64)
        if not self.ids:
            return [[] for _ in range(queries.shape[0])]
        days = np.asarray(query_days, dtype=np.float64)
        alpha, dim = self.similarity.alpha, queries.shape[1]
        scores = score_block(self.block, self.days, augment_queries(queries), days, alpha)
        eligible = np.ones(len(self.ids), dtype=bool)
        if history_before_day is not None:
            eligible &= self.days < history_before_day
        if categories:  # an empty filter is no filter
            eligible &= np.array([label in categories for label in self.labels])
        results = []
        for query, row_scores in enumerate(scores):
            allowed = eligible.copy()
            for incident_id in (exclude_ids[query] if exclude_ids else None) or ():
                if incident_id in self.ids:
                    allowed[self.ids.index(incident_id)] = False
            candidates = np.flatnonzero(allowed)
            order = candidates[np.lexsort((candidates, -row_scores[candidates]))]
            picks = select_complete_order(
                [self.labels[row] for row in order],
                k or self.similarity.k,
                self.similarity.diverse_categories,
            )
            results.append([
                Neighbor(VectorEntry(self.ids[row], self.block[:dim, row].copy(),
                                     float(self.days[row]), self.labels[row], self.texts[row]),
                         float(row_scores[row]))
                for row in order[picks].tolist()
            ])
        return results
