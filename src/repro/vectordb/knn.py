"""Temporal-decay nearest-neighbour search over the vector store.

Implements the paper's neighbour selection (Section 4.2.2): score every
historical incident with the combined Euclidean/temporal similarity, then
"select the top K incidents from different categories as demonstrations for
the LLM", keeping the demonstration set diverse.

Two entry points share one selection algorithm:

* :meth:`NearestNeighborSearch.search` — one query (delegates to the batch
  path with a single-row batch, so both paths stay behaviourally identical);
* :meth:`NearestNeighborSearch.search_many` — a whole batch of queries
  scored in one matrix–matrix operation, with ``argpartition`` top-k
  selection instead of materialising a ``Neighbor`` object per stored entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from .scoring import score_block
from .similarity import SimilarityConfig
from .store import VectorEntry, VectorStore


@dataclass
class Neighbor:
    """One retrieved neighbour with its similarity score.

    ``entry`` is a snapshot of the stored row, built when the search picked
    it: a later ``update_category`` shows in the index's ``get`` and in
    later searches, not in a neighbour already returned.
    """

    entry: VectorEntry
    similarity: float

    @property
    def category(self) -> str:
        """Category of the neighbouring incident."""
        return self.entry.category

    @property
    def incident_id(self) -> str:
        """Id of the neighbouring incident."""
        return self.entry.incident_id


def select_complete_order(categories: Iterable[str], k: int, diverse: bool) -> List[int]:
    """Select positions from a *complete*, descending-ordered candidate list.

    ``categories`` yields the category of each candidate, with candidates
    already sorted by descending score (ties broken by ascending insertion
    order).  This is the one selection algorithm both index layouts share —
    :meth:`NearestNeighborSearch._pick` delegates its complete-prefix path
    here and the sharded index runs it over merged per-shard candidates —
    so flat and sharded retrieval cannot drift apart:

    * ``diverse=False``: the first ``k`` positions;
    * ``diverse=True``: one candidate per distinct category while categories
      remain, then the best remaining candidates regardless of category,
      always yielding ``min(k, #candidates)`` positions.
    """
    if k <= 0:
        return []
    selected: List[int] = []
    if not diverse:
        for position, _ in enumerate(categories):
            selected.append(position)
            if len(selected) >= k:
                break
        return selected
    seen: Set[str] = set()
    fillers: List[int] = []
    for position, category in enumerate(categories):
        if category in seen:
            fillers.append(position)
            continue
        selected.append(position)
        seen.add(category)
        if len(selected) >= k:
            return selected
    for position in fillers:
        selected.append(position)
        if len(selected) >= k:
            return selected
    return selected


class NearestNeighborSearch:
    """Brute-force scored search with optional per-category diversity."""

    def __init__(self, store: VectorStore, config: Optional[SimilarityConfig] = None) -> None:
        self.store = store
        self.config = config or SimilarityConfig()
        #: Distinct query groups actually scored so far (in-batch duplicates
        #: share one scoring pass) — the basis for honest scan telemetry.
        self.scored_groups = 0

    # ---------------------------------------------------------------- scoring
    def score_all(self, query_vector: np.ndarray, query_day: float) -> np.ndarray:
        """Similarity of one query against every stored incident (vectorised)."""
        return self.score_many(
            np.asarray(query_vector, dtype=np.float64).reshape(1, -1),
            np.array([query_day], dtype=np.float64),
        )[0]

    def score_many(self, query_matrix: np.ndarray, query_days: np.ndarray) -> np.ndarray:
        """Similarities of a whole query batch against the stored history.

        One matrix–matrix product scores every (query, entry) pair, through
        the kernel the sharded index shares (:func:`.scoring.score_block`).

        Args:
            query_matrix: ``(Q, dim)`` array of query embeddings.
            query_days: ``(Q,)`` array of query creation days.

        Returns:
            ``(Q, N)`` array of similarity scores aligned with
            :meth:`VectorStore.matrix` rows.
        """
        matrix = self.store.matrix()
        queries = np.asarray(query_matrix, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("query_matrix must be a 2-D (batch, dim) array")
        days = np.asarray(query_days, dtype=np.float64).ravel()
        if days.shape[0] != queries.shape[0]:
            raise ValueError("query_days must align with query_matrix rows")
        if matrix.shape[0] == 0:
            return np.zeros((queries.shape[0], 0))
        if queries.shape[1] != matrix.shape[1]:
            raise ValueError(
                f"query dimension {queries.shape[1]} does not match store dimension "
                f"{matrix.shape[1]}"
            )
        return score_block(
            matrix, self.store.squared_norms(), self.store.created_days(),
            queries, days, self.config.alpha,
        )

    # -------------------------------------------------------------- selection
    def _select(
        self,
        scores: np.ndarray,
        eligible: np.ndarray,
        k: int,
    ) -> List[Neighbor]:
        """Select the top-k neighbours for one query's score row.

        Scans candidates in descending score order (ties broken by ascending
        insertion index) using progressively widened ``argpartition``
        prefixes, so only ``O(k)`` ``Neighbor`` objects are ever built.

        Guarantee: exactly ``min(k, #eligible)`` neighbours are returned.
        With ``diverse_categories`` enabled, distinct categories are
        preferred (at most one neighbour per category while categories
        remain), and the list is then filled with the best remaining
        incidents regardless of category — exclusions and history cut-offs
        never silently shrink the result below that size.
        """
        total = eligible.shape[0]
        if total == 0 or k <= 0:
            return []
        eligible_scores = scores[eligible]
        prefix = min(total, max(2 * k, 16))
        while True:
            complete = prefix >= total
            if complete:
                order = np.lexsort((eligible, -eligible_scores))
                candidates = eligible[order]
            else:
                top = np.argpartition(-eligible_scores, prefix - 1)[:prefix]
                # argpartition breaks score ties arbitrarily; include every
                # entry tied with the boundary score so the scanned prefix is
                # an exact prefix of the global (-score, insertion) order —
                # deterministic and independent of the index layout.
                boundary = eligible_scores[top].min()
                tied_total = int((eligible_scores == boundary).sum())
                tied_in_top = int((eligible_scores[top] == boundary).sum())
                if tied_total > tied_in_top:
                    top = np.flatnonzero(eligible_scores >= boundary)
                order = np.lexsort((eligible[top], -eligible_scores[top]))
                candidates = eligible[top][order]
            chosen = self._pick(scores, candidates, k, complete=complete)
            if chosen is not None:
                return chosen
            prefix = min(total, prefix * 4)

    def _pick(
        self,
        scores: np.ndarray,
        ordered_indices: np.ndarray,
        k: int,
        complete: bool = False,
    ) -> Optional[List[Neighbor]]:
        """One selection pass over an ordered candidate prefix.

        Returns the selected neighbours, or None when the prefix was
        exhausted before the guarantee could be met (caller widens and
        retries).  A complete prefix delegates to
        :func:`select_complete_order` — the single selection algorithm every
        index layout shares — and always succeeds.
        """
        categories = self.store._categories  # noqa: SLF001 - intra-module hot path

        def neighbor(index: int) -> Neighbor:
            return Neighbor(entry=self.store.entry(index), similarity=float(scores[index]))

        if complete:
            picks = select_complete_order(
                (categories[int(i)] for i in ordered_indices),
                k,
                self.config.diverse_categories,
            )
            return [neighbor(int(ordered_indices[position])) for position in picks]
        if not self.config.diverse_categories:
            if ordered_indices.shape[0] < k:
                return None
            return [neighbor(int(i)) for i in ordered_indices[:k]]
        selected: List[Neighbor] = []
        seen_categories: Set[str] = set()
        for i in ordered_indices:
            index = int(i)
            category = categories[index]
            if category in seen_categories:
                continue
            selected.append(neighbor(index))
            seen_categories.add(category)
            if len(selected) >= k:
                return selected
        # Fewer distinct categories than k inside this incomplete prefix:
        # un-scanned candidates beyond it could still contribute a *new*
        # category, which takes precedence over same-category fillers, so
        # the caller must widen and retry.
        return None

    def _eligible_indices(
        self,
        exclude_ids: Optional[Set[str]],
        history_before_day: Optional[float],
        categories: Optional[Set[str]] = None,
    ) -> np.ndarray:
        """Row indices that pass the exclusion, look-ahead and category filters."""
        total = len(self.store)
        if not exclude_ids and history_before_day is None and not categories:
            return np.arange(total)
        mask = np.ones(total, dtype=bool)
        if history_before_day is not None:
            mask &= self.store.created_days() < history_before_day
        if categories:
            mask &= np.fromiter(
                (category in categories for category in self.store._categories),  # noqa: SLF001
                dtype=bool,
                count=total,
            )
        if exclude_ids:
            for incident_id in exclude_ids:
                index = self.store.index_of(incident_id)
                if index is not None:
                    mask[index] = False
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------ search
    def search(
        self,
        query_vector: np.ndarray,
        query_day: float,
        k: Optional[int] = None,
        exclude_ids: Optional[set] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[Neighbor]:
        """Return the top-K neighbours for one query.

        Args:
            query_vector: Embedding of the incoming incident.
            query_day: Creation day of the incoming incident.
            k: Number of neighbours (defaults to the configured K).
            exclude_ids: Incident ids to skip (e.g. the query itself).
            history_before_day: When set, only incidents created strictly
                before this day participate (prevents look-ahead when
                evaluating on a chronological test split).
            categories: When set, only incidents labelled with one of these
                categories participate.

        Returns:
            Neighbours in descending similarity order.  The result always
            holds exactly ``min(k, eligible)`` entries, where ``eligible``
            counts the stored incidents surviving ``exclude_ids`` and
            ``history_before_day``.  With ``diverse_categories`` enabled, at
            most one neighbour per category is returned while distinct
            categories remain, and the remaining slots are filled with the
            best remaining incidents — filters never silently shrink the
            result below the guarantee.
        """
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
        """Top-K neighbours for every query in a batch.

        All queries are scored against the history in one matrix–matrix
        operation (:meth:`score_many`); per-query selection then uses
        ``argpartition`` prefixes so the cost per query is ``O(N + k log k)``
        without building a ``Neighbor`` per stored entry.

        Args:
            query_matrix: ``(Q, dim)`` array of query embeddings.
            query_days: Creation day of each query.
            k: Number of neighbours per query (defaults to the configured K).
            exclude_ids: Optional per-query sets of incident ids to skip.
            history_before_day: Shared look-ahead cut-off for the whole batch.
            categories: Shared category filter for the whole batch.

        Returns:
            One descending-similarity neighbour list per query, with the same
            size and diversity guarantees as :meth:`search`.
        """
        k = k or self.config.k
        queries = np.asarray(query_matrix, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("query_matrix must be a 2-D (batch, dim) array")
        if exclude_ids is not None and len(exclude_ids) != queries.shape[0]:
            raise ValueError("exclude_ids must align with query_matrix rows")
        days = np.asarray(query_days, dtype=np.float64).ravel()
        if days.shape[0] != queries.shape[0]:
            raise ValueError("query_days must align with query_matrix rows")
        if queries.shape[0] == 0:
            return []
        if len(self.store) == 0:
            return [[] for _ in range(queries.shape[0])]
        # Recurring incidents produce identical queries (paper Figure 2); each
        # distinct (vector, day, effective exclusions) group is scored and
        # selected once.  Exclusion ids absent from the store cannot change
        # the result, so they are dropped from the grouping key.
        group_of: List[int] = []
        group_rows: List[int] = []
        group_excludes: List[Optional[Set[str]]] = []
        group_index: dict = {}
        for row in range(queries.shape[0]):
            raw_exclude = exclude_ids[row] if exclude_ids is not None else None
            effective = (
                frozenset(
                    incident_id
                    for incident_id in raw_exclude
                    if self.store.index_of(incident_id) is not None
                )
                if raw_exclude
                else frozenset()
            )
            key = (queries[row].tobytes(), float(days[row]), effective)
            index = group_index.get(key)
            if index is None:
                index = len(group_rows)
                group_index[key] = index
                group_rows.append(row)
                group_excludes.append(set(effective) if effective else None)
            group_of.append(index)
        self.scored_groups += len(group_rows)
        scores = self.score_many(queries[group_rows], days[group_rows])
        group_results: List[List[Neighbor]] = []
        for position, row in enumerate(group_rows):
            eligible = self._eligible_indices(
                group_excludes[position], history_before_day, categories
            )
            group_results.append(self._select(scores[position], eligible, k))
        return [list(group_results[group_of[row]]) for row in range(queries.shape[0])]
