"""The paper's neighbour selection and the neighbour it returns.

Retrieval (Section 4.2.2) scores historical incidents with the combined
Euclidean/temporal similarity, then "select[s] the top K incidents from
different categories as demonstrations for the LLM", keeping the
demonstration set diverse.  :func:`select_complete_order` is that selection
over candidates already in descending score order; the sharded index runs
it over its merged candidates and returns :class:`Neighbor` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set

from .store import VectorEntry


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
    order).  The sharded index runs it over its merged per-shard
    candidates, and the brute-force test oracle over every eligible row:

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
