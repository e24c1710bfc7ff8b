"""Time-window sharded vector index with exact bound-based shard pruning.

At multi-100k histories a full scan scores every stored incident for
every query.  But the paper's similarity (Section 4.2.2) decays
exponentially with the temporal gap — ``exp(-alpha |dT|) / (1 + dist)`` —
so an incident far in the past can never outscore a moderately close recent
one.  :class:`ShardedVectorIndex` exploits this: entries are partitioned
into time-window shards and, per query, shards are visited nearest-in-time
first; a shard whose score *upper bound* ``exp(-alpha * dt_min)`` falls
below the already-collected candidates is pruned without any matrix
product.

Pruning is **exact**, not approximate, and has two exits.  The final
selection (:func:`~repro.vectordb.knn.select_complete_order`) walks the
candidates by descending score, takes the first of each unseen category and
stops at ``k``:

* *category exit* (diversity on): once ``k`` distinct categories each hold
  an eligible candidate strictly above a shard's bound, the walk stops
  before it could reach any entry of that shard — or of any later one, since
  shards are visited in ascending ``dt_min`` and the bound only falls.  The
  first such prune therefore finishes the query.
* *filler exit* (fewer than ``k`` categories above the bound, or diversity
  off): picks come from the global top ``2k`` entries by score (up to ``k``
  fillers after up to ``k`` diverse picks) and the per-category argmaxes,
  so a shard is skipped when the pool already holds ``2k`` entries strictly
  above its bound and every category present in it is covered by a
  candidate strictly above the bound.

Both tests are strict: an unscanned entry scoring exactly the bound could
tie with a held candidate and win on the global insertion sequence, which
breaks ties exactly like a full scan, so a tie never prunes.  The index
returns the neighbour lists a full scan of every entry would (the
brute-force oracle ``tests/vectordb/oracle.py`` is that scan).

With ``alpha == 0`` the bound is 1.0 and nothing is ever pruned (correct:
without decay every era of the history matters equally).

One search's scan state is batch-major (:class:`_ScanState`): a row per
query for its candidate pool and its per-category bests.  In each scan
*wave* every query nominates its next shard, each nominated shard is scored
once over its nominating queries with one matrix product on the calling
thread, against the shard's dim-major ``(dim + 2, rows)`` block, and each
scored block is folded in one step: exact filters become ``-inf`` scores,
and only the cells at or above each query's *floor* are kept.  The floor is
the query's pool minimum, no higher than ``kth_best``, since nothing below
it can still reach the result or a scan decision; while that is still
``-inf`` (a query's first shard) the block supplies one from its own
``2k``-th largest category maximum or score (:meth:`_ScanState.fold`).
Where a floor still keeps more cells than the merges can take (a shard of
near copies), only the row's top ``2k`` and each category's maximum stay,
ties included (:meth:`_ScanState._winners`).  At
the end of the wave every block's kept cells merge into the pools and the
per-category bests at once, with one flat ``lexsort`` each
(:meth:`_ScanState.merge_wave`): a query nominates at most one shard per
wave, so the blocks of a wave own disjoint query rows.

Once every row of a block has a positive floor (from a query's second
shard on, mostly), only the cells that can still reach it are scored.  A
row's decay in the shard is at most the bound ``b`` the query holds for
it, so a cell at squared distance above ``((b / floor - 1)(1 + 1e-9))^2``
scores below the floor; the product's squared distances are compared with
that limit and only the cells within it get the square root, decay and
division (:func:`.scoring.scores_at_least`, whose docstring proves the
margin covers rounding).  The skip is exact: the kept cells, their scores
and everything merged are the bits a whole block's scores give.

Shards self-compact: :meth:`ShardedVectorIndex.compact` merges adjacent
cold shards below a size floor and splits hot shards above a ceiling
(:class:`CompactionPolicy`), so the scanned-shard ratio stays bounded as a
skewed history ages; ``max_rewrite_shards`` caps how many source shards a
single pass may rewrite, spreading the work across insert waves.
Compaction re-keys shards but never reorders entries against the global
insertion sequence, so search results are unchanged.

Persistence is manifest v4, the only format: one immutable segment file
per shard (vectors, days, norms, sequences, ids and texts), one small file
of category codes, and a small ``manifest.json`` naming them, replaced
last as the single commit point.  :meth:`ShardedVectorIndex.save` writes
a segment only for shards whose rows changed since the index last saved to
or loaded from that directory, so a snapshot costs what changed and a
crash at any step leaves the previous snapshot or the new one;
:meth:`ShardedVectorIndex.load` maps each segment with ``np.memmap``
semantics, and a shard's vectors are read — snapped into its own row
buffer, their squared norms recomputed — only when a query first scans it
(or an insert, a compaction or a lookup first needs them).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.errors import IndexCorruptionError
from .knn import Neighbor, select_complete_order
from .scoring import (
    augment_queries,
    one_thread_product,
    rejected,
    score_block,
    scores_at_least,
    snap,
)
from .shardmem import map_segment, write_durable, write_segment
from .similarity import SimilarityConfig
from .store import VectorEntry, validate_batch

#: Default shard width in days.
DEFAULT_WINDOW_DAYS = 30.0

#: Manifest file name marking a sharded index directory.
SHARDED_MANIFEST = "manifest.json"

#: The one manifest version :meth:`ShardedVectorIndex.save` writes and
#: :meth:`ShardedVectorIndex.load` reads.
MANIFEST_VERSION = 4

#: Segment (``seg-<shard key>-<generation>.bin``) and codes
#: (``codes-<generation>.bin``) files of a snapshot directory.  Every save
#: names what it writes with a generation above any in the directory, so a
#: file is never rewritten and a reused shard key never collides.
_SNAPSHOT_FILE = re.compile(r"(?:seg--?\d+|codes)-(\d+)\.bin")

#: Rows a fresh shard's columns are first allocated for.
_INITIAL_CAPACITY = 64

#: The lowest finite float: a fold floor that takes every finite cell and
#: no ``-inf`` (filtered) one.
_LOWEST = -np.finfo(np.float64).max

#: The smallest normal float: a block whose every floor is at least this
#: scores only the cells that can reach it (:func:`.scoring.scores_at_least`).
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def time_bucket(day: float, window_days: float) -> int:
    """Shard key of a creation day: which ``window_days``-wide window it is in."""
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    return int(math.floor(day / window_days))


@dataclass(frozen=True)
class CompactionPolicy:
    """When shards are merged (cold tail) or split (hot head).

    A time-window layout skews as history ages: recent windows fill up
    while old windows stay tiny, so the per-query shard-visit overhead
    grows without bound and one hot shard dominates scan cost.  Compaction
    keeps shard sizes inside ``[min_entries, max_entries]`` where the data
    allows: runs of *adjacent* shards each below ``min_entries`` are merged
    (never past ``max_entries`` combined) and shards above ``max_entries``
    are split at day boundaries into roughly equal chunks.

    With ``auto`` enabled, :meth:`ShardedVectorIndex.add_many` triggers
    :meth:`ShardedVectorIndex.compact` after every ``check_every`` inserted
    entries; compaction never changes search results, only the layout.

    ``max_rewrite_shards`` bounds how many *source* shards one pass may
    rewrite (a split costs its one source, a merge costs the run length).
    Deferred work is reported and — under ``auto`` — re-primed so the next
    insert wave continues where this one stopped, keeping per-wave
    compaction latency flat instead of rewriting an arbitrarily large
    backlog at once.
    """

    #: Merge adjacent shards smaller than this (0 disables merging).
    min_entries: int = 256
    #: Split shards larger than this.
    max_entries: int = 8192
    #: Run compact() automatically as entries are inserted.
    auto: bool = False
    #: Auto-trigger cadence, counted in inserted entries.
    check_every: int = 4096
    #: Most source shards one compact() pass may rewrite (None: unlimited).
    max_rewrite_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_entries < 0:
            raise ValueError("min_entries must be non-negative")
        if self.max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if self.min_entries and self.max_entries < 2 * self.min_entries:
            raise ValueError(
                "max_entries must be at least twice min_entries, or merged "
                "shards would immediately re-qualify for splitting"
            )
        if self.check_every <= 0:
            raise ValueError("check_every must be positive")
        if self.max_rewrite_shards is not None and self.max_rewrite_shards < 1:
            raise ValueError(
                "max_rewrite_shards must be positive (or None for unlimited)"
            )


class _ShardData:
    """One shard's immutable scoring payload: plain arrays, no index state.

    What a scan wave scores and folds: the shard's ``(dim + 2, rows)`` block
    of ``[x, |x|^2, 1]`` columns (:func:`~repro.vectordb.scoring.score_block`'s
    block, a strided view of the shard's buffer), days, sequences and codes,
    views into the shard's columns.
    """

    __slots__ = ("key", "total", "block", "days", "seqs", "codes", "_groups", "_row_groups")

    def __init__(
        self,
        key: int,
        block: np.ndarray,
        days: np.ndarray,
        seqs: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        self.key = key
        self.total = block.shape[1]
        self.block = block
        self.days = days
        self.seqs = seqs
        self.codes = codes
        self._groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._row_groups: Optional[np.ndarray] = None

    def groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """Category grouping of the shard's rows, cached between queries.

        Returns ``(perm, starts)``: ``perm`` lists row indices grouped by
        category code (rows ascending inside each group, via a stable sort,
        so "first in group" means "lowest insertion sequence") and
        ``starts`` delimits the groups inside ``perm``.  Codes only change
        on insert/relabel (which rebuilds this payload), so per-query
        category maxima reduce to one ``np.maximum.reduceat`` instead of a
        full sort.
        """
        if self._groups is None:
            perm = np.argsort(self.codes, kind="stable")
            grouped = self.codes[perm]
            starts = np.flatnonzero(
                np.concatenate([[True], grouped[1:] != grouped[:-1]])
            )
            self._groups = (perm, starts)
        return self._groups

    def row_groups(self) -> np.ndarray:
        """Each row's group in :meth:`groups` (its column of a ``reduceat``
        over them), cached alike."""
        if self._row_groups is None:
            perm, starts = self.groups()
            self._row_groups = np.empty(self.total, dtype=np.intp)
            self._row_groups[perm] = np.repeat(
                np.arange(starts.shape[0]), np.diff(starts, append=self.total)
            )
        return self._row_groups


def _filtered_rows(
    data: _ShardData,
    history_before_day: Optional[float],
    allowed_codes: Optional[np.ndarray],
) -> np.ndarray:
    """Rows of one shard that the batch-wide filters remove."""
    keep = np.ones(data.total, dtype=bool)
    if history_before_day is not None:
        keep &= data.days < history_before_day
    if allowed_codes is not None:
        keep &= np.isin(data.codes, allowed_codes)
    return np.flatnonzero(~keep)


def _score_floor(
    scores: np.ndarray, size: int, maxima: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per row, its ``size``-th largest score: below it no cell enters the pool.

    With ``maxima`` (diversity on) the floor is lowered to the row's
    smallest finite category maximum, so every category's argmax is folded.
    A row with fewer than ``size`` finite scores takes every finite cell:
    the floor is then the lowest finite float, never ``-inf``, so a
    filtered cell is never taken.
    """
    column = scores.shape[1] - size
    floor = np.partition(scores, column, axis=1)[:, column]
    if maxima is not None:
        lowest = np.min(maxima, axis=1, initial=math.inf, where=maxima > -math.inf)
        floor = np.minimum(floor, lowest)
    return np.maximum(floor, _LOWEST)


def _group_rows(keys: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Batch rows grouped by key: ``order`` and one ``(key, lo, hi)`` per group.

    ``order[lo:hi]`` are the group's rows in batch order; groups come in the
    order of their first row.
    """
    by_key = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_key]
    runs = np.split(by_key, np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    runs.sort(key=lambda run: run[0])
    bounds = [0, *itertools.accumulate(run.shape[0] for run in runs)]
    return np.concatenate(runs), [
        (int(keys[run[0]]), lo, hi) for run, lo, hi in zip(runs, bounds, bounds[1:])
    ]


class _Shard:
    """One time-window shard: its rows as columns, plus sharding bookkeeping.

    A row is one historical incident.  Its vector, snapped to the scoring
    grid (:func:`.scoring.snap`), is one ``[x, |x|^2, 1]`` *column* of
    ``_buffer``, a dim-major ``(dim + 2, capacity)`` array, so scoring a
    block of queries against the shard is one product, ``queries @
    _buffer[:, :rows]``, on a strided view BLAS reads as it lies; its
    creation day, global insertion sequence and category code sit at the
    same position of ``_days``, ``_seqs`` and ``_codes``.  The four grow
    together in :meth:`reserve`, to one capacity that doubles when full.
    Ids and texts are plain lists; a category is kept only as its code,
    which the index names, and the shard's distinct codes are cached from
    that column alone (:meth:`present_codes`).  No per-row object is kept:
    :meth:`entry` builds a :class:`VectorEntry` on demand, a snapshot of the
    row at that moment.

    A loaded shard (:meth:`take_segment`) keeps its segment's mapped
    row-major matrix in ``_source`` until a vector is first read (a scan, an
    insert, a compaction, a save elsewhere or a lookup): it is then snapped
    into a private dim-major buffer, its squared norms recomputed, so a
    mapping's pages fault in only then; pruning and the category filter
    read only the codes.  Its days and sequences view the read-only mapping
    and its codes a private array, at a capacity of exactly its rows, so
    the first insert copies them into private columns.

    ``start_day``/``end_day`` are the half-open day range the shard *routes*
    (new inserts whose creation day falls inside it land here); fresh shards
    cover exactly one ``window_days`` bucket, compacted shards cover merged
    or subdivided ranges.  ``min_day``/``max_day`` track the actual stored
    entries and stay the (tighter) basis of the pruning bound.

    ``saved`` is ``(segment file name, rows in it)`` once the shard's rows
    are in a committed segment of the index's snapshot directory, None on
    every fresh shard.  Rows only ever append to one ``_Shard`` object, so
    the shard is clean exactly while the row count still matches.
    """

    __slots__ = (
        "key", "ids", "texts", "min_day", "max_day", "start_day", "end_day", "saved",
        "_buffer", "_source", "_days", "_seqs", "_codes", "_present", "_by_id", "_data",
    )

    def __init__(self, key: int, start_day: float = -math.inf, end_day: float = math.inf) -> None:
        self.key = key
        self.ids: List[str] = []
        self.texts: List[str] = []
        self.min_day = math.inf
        self.max_day = -math.inf
        self.start_day = start_day
        self.end_day = end_day
        self.saved: Optional[Tuple[str, int]] = None
        self._buffer: Optional[np.ndarray] = None  # (dim + 2) x capacity: [x, |x|^2, 1]
        self._source: Optional[np.ndarray] = None  # loaded rows not yet in the buffer
        self._days = np.zeros(0)
        self._seqs = np.zeros(0, dtype=np.int64)
        self._codes = np.zeros(0, dtype=np.int64)
        self._present: Optional[np.ndarray] = None  # read through present_codes()
        self._by_id: Dict[str, int] = {}  # read through row_of()
        self._data: Optional[_ShardData] = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def codes(self) -> np.ndarray:
        """Each row's category code (a view; reading it snaps no vector)."""
        return self._codes[: len(self.ids)]

    def present_codes(self) -> np.ndarray:
        """The distinct category codes of the shard's rows, ascending.

        Counted from the codes column alone, so asking snaps no vector, and
        cached until an append or a relabel changes the column.
        """
        if self._present is None:
            self._present = np.flatnonzero(np.bincount(self.codes))
        return self._present

    def take_segment(
        self, views: Dict[str, np.ndarray], ids: List[str], texts: List[str], codes: np.ndarray
    ) -> None:
        """Take a segment's columns as the rows of this empty shard (the load path).

        ``views`` are the segment's mapped ``matrix``, ``days`` and ``seqs``;
        the lists and ``codes`` become the shard's columns uncopied.
        """
        if not views["matrix"].shape[0] == len(ids) == len(texts):
            raise ValueError("segment rows, ids and texts must align")
        self.ids, self.texts = ids, texts
        self._source = views["matrix"]
        self._days, self._seqs, self._codes = views["days"], views["seqs"], codes
        self._present = None

    def _block(self) -> Optional[np.ndarray]:
        """The row buffer, first built from the rows :meth:`take_segment` left, if any."""
        if self._source is not None:
            source, self._source = self._source, None
            self._buffer = np.empty((source.shape[1] + 2, source.shape[0]))
            snap(source, self._buffer)
        return self._buffer

    def reserve(self, count: int, dim: int) -> np.ndarray:
        """The buffer columns the next ``count`` rows will occupy, every column grown to fit.

        Rows written there stay invisible until :meth:`append` stores them.
        """
        size = len(self.ids)
        needed = size + count
        buffer = self._block()
        capacity = 0 if buffer is None else buffer.shape[1]
        if needed > capacity:
            capacity = capacity or max(_INITIAL_CAPACITY, needed)
            while capacity < needed:
                capacity *= 2
            columns = (self._days, self._seqs, self._codes)
            self._buffer = np.zeros((dim + 2, capacity))
            self._days = np.zeros(capacity)
            self._seqs = np.zeros(capacity, dtype=np.int64)
            self._codes = np.zeros(capacity, dtype=np.int64)
            if size:
                self._buffer[:, :size] = buffer[:, :size]
                grown = (self._days, self._seqs, self._codes)
                for column, old in zip(grown, columns):
                    column[:size] = old[:size]
        return self._buffer[:, size:needed]

    def append(self, ids, days, texts, seqs, codes, rows=None) -> None:
        """Store the rows written into :meth:`reserve`'s block, with their other columns.

        ``days`` are the batch's days; ``rows`` picks the appended rows'
        days from them (all, in order, when None).
        """
        start = len(self.ids)
        end = start + len(ids)
        written = self._days[start:end]
        if rows is None:
            written[:] = days
        else:  # "clip": under the default "raise" numpy buffers ``out``
            np.take(days, rows, out=written, mode="clip")
        self._seqs[start:end] = seqs
        self._codes[start:end] = codes
        self._present = None
        self.ids.extend(ids)
        self.texts.extend([""] * len(ids) if texts is None else texts)
        self.min_day = min(self.min_day, float(written.min()))
        self.max_day = max(self.max_day, float(written.max()))

    def take_columns(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Write the ``[x, |x|^2, 1]`` columns of ``rows`` into ``out``.

        Gathers from the whole buffer, which is contiguous: ``np.take``
        first copies a strided view such as ``data().block`` whole.
        """
        np.take(self._block(), rows, axis=1, out=out, mode="clip")

    def relabel(self, row: int, code: int) -> None:
        """Give one row another category code."""
        if self._codes[row] != code:
            self._codes[row] = code
            self._present = None
            self._data = None

    def row_of(self, incident_id: str) -> int:
        """The row of a stored id, from the id → row dict caught up with the rows since.

        Appends leave the dict behind, so a shard that is filled in bulk or
        loaded and never asked for an id (most shards) never builds it.
        """
        indexed = len(self._by_id)
        if indexed < len(self.ids):
            self._by_id.update(zip(self.ids[indexed:], range(indexed, len(self.ids))))
        return self._by_id[incident_id]

    def entry(self, row: int, names: List[str]) -> VectorEntry:
        """A snapshot of one row as an entry; ``names`` names its category code.

        Its vector is a contiguous copy of the row's column.
        """
        return VectorEntry(
            incident_id=self.ids[row],
            vector=self._block()[:-2, row].copy(),
            created_day=float(self._days[row]),
            category=names[self._codes[row]],
            text=self.texts[row],
        )

    def data(self) -> _ShardData:
        """The shard's scoring payload, rebuilt when rows were appended.

        Inserts only ever append (and relabels invalidate explicitly), so a
        row-count check suffices; the columns are only replaced on growth,
        which implies a row-count change.  A loaded shard's first payload
        snaps its mapped rows into its own buffer.
        """
        size = len(self.ids)
        if self._data is None or self._data.total != size:
            self._data = _ShardData(
                self.key,
                block=self._block()[:, :size],
                days=self._days[:size],
                seqs=self._seqs[:size],
                codes=self._codes[:size],
            )
        return self._data


class _QueryState:
    """One query's shard cursor and scan counters.

    ``order`` lists ``(score upper bound, shard key)`` nearest-in-time
    first; ``pos`` is the shard the query nominated, while it is scanned.
    """

    __slots__ = ("order", "pos", "done", "scanned", "pruned", "skipped")

    def __init__(self, order: List[Tuple[float, int]]) -> None:
        self.order = order
        self.pos = 0
        self.done = False
        self.scanned = 0
        self.pruned = 0
        self.skipped = 0

    @property
    def bound(self) -> float:
        """The score upper bound of the shard at the cursor."""
        return self.order[self.pos][0]


class _Block:
    """One shard and the queries that nominated it in a wave, scored on demand.

    ``queries`` are the nominating queries' augmented rows, ``days`` their
    days and ``bounds`` the score upper bound each holds for the shard (no
    cell's decay exceeds it).  ``filtered`` are the shard rows the
    batch-wide filters remove (None without them) and ``excluded`` one
    ``(row of the block, shard rows)`` pair per query that excludes rows
    here.  A block is scored once, either way.
    """

    __slots__ = ("data", "queries", "days", "alpha", "bounds", "filtered", "excluded")

    def __init__(
        self,
        data: _ShardData,
        queries: np.ndarray,
        days: np.ndarray,
        alpha: float,
        bounds: np.ndarray,
        filtered: Optional[np.ndarray],
        excluded: List[Tuple[int, List[int]]],
    ) -> None:
        self.data = data
        self.queries = queries
        self.days = days
        self.alpha = alpha
        self.bounds = bounds
        self.filtered = filtered
        self.excluded = excluded

    def _remove(self, matrix: np.ndarray, value: float) -> None:
        """Write ``value`` into every cell the filters remove."""
        if self.filtered is not None:
            matrix[:, self.filtered] = value
        for position, rows in self.excluded:
            matrix[position, rows] = value

    def scores(self) -> np.ndarray:
        """Every cell's score, ``-inf`` where a filter removes it."""
        data = self.data
        scores = score_block(data.block, data.days, self.queries, self.days, self.alpha)
        self._remove(scores, -math.inf)
        return scores

    def scores_at_least(self, floors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The flat cells scoring at least their row's normal positive floor
        and their scores; only those cells are scored.  A removed cell's
        squared distance becomes ``+inf``, which scores 0."""
        squared = one_thread_product(self.queries, self.data.block)
        self._remove(squared, math.inf)
        return scores_at_least(
            squared, self.data.days, self.days, self.alpha, self.bounds, floors
        )


class _ScanState:
    """One search's candidates, batch-major: a row per query.

    ``pool_*`` (``queries x 2k``) hold each query's global top ``2k``
    scanned entries by (score desc, seq asc): score, global sequence, shard
    key, shard row and category code.  Empty slots score ``-inf``, so a
    row's last column is its pool minimum, ``-inf`` while the pool is not
    full.  ``best_*`` (``queries x categories``) hold, per category code,
    the eligible argmax seen so far — what the diversity pass would pick
    first — with ``-inf`` meaning "not covered yet"; ``kth_best`` is the
    K-th largest of them (``-inf`` while fewer than K are covered), the
    score of the diversity pass's last pick so far.

    Within a wave :meth:`fold` only finds each scored block's cells worth
    keeping; :meth:`merge_wave` merges every block's cells into the pools
    and bests at the end of the wave.
    """

    def __init__(self, queries: int, category_count: int, k: int, diverse: bool) -> None:
        self.k = k
        self.diverse = diverse
        self.pool_size = 2 * k
        pool = (queries, self.pool_size)
        self.pool_scores = np.full(pool, -math.inf)
        self.pool_seqs = np.zeros(pool, dtype=np.int64)
        self.pool_keys = np.zeros(pool, dtype=np.int64)
        self.pool_rows = np.zeros(pool, dtype=np.int64)
        self.pool_codes = np.zeros(pool, dtype=np.int64)
        bests = (queries, category_count)
        self.best_scores = np.full(bests, -math.inf)
        self.best_seqs = np.zeros(bests, dtype=np.int64)
        self.best_keys = np.zeros(bests, dtype=np.int64)
        self.best_rows = np.zeros(bests, dtype=np.int64)
        self.kth_best = np.full(queries, -math.inf)
        # The wave's kept cells, one tuple per block that kept any (see
        # merge_wave), and the query rows those blocks cover so far.
        self._wave: List[Tuple[np.ndarray, ...]] = []
        self._wave_width = 0

    def fold(self, queries: np.ndarray, block: _Block) -> None:
        """Keep the cells of one nominated shard that the wave's merge must see.

        ``queries`` are the rows of the queries that nominated the shard and
        ``block`` scores them against it (``block.data``), every entry a
        filter removes at ``-inf``.  Only the cells at or above each row's *floor* are kept,
        for the pools and the per-category bests alike — ``>=`` keeps a tie
        at the floor, which may hold the lower sequence; :meth:`merge_wave`
        merges them.  A query's floor is its pool minimum, with diversity on
        lowered to ``kth_best``: a cell below it cannot enter the full pool,
        and a category best below ``kth_best`` is never one of the K diverse
        picks nor read by a scan decision (those only read bests above a
        shard bound no lower than ``kth_best``).  The floors read the pools
        and bests as the wave found them: no merge runs before the wave
        ends, and no other block of the wave holds these query rows.

        When every row's floor is a normal positive float, only the cells
        whose squared distance could still reach it are scored
        (:meth:`_Block.scores_at_least`); they are exactly the cells a whole
        block's scores would keep.  While some row's floor is still ``-inf``
        (a query's first shard, or fewer than K categories covered) the
        whole block is scored, it supplies a floor (:meth:`_block_floor`)
        and every row keeps the higher of the two.

        A row's merges take at most ``2k`` of its cells into the pool and,
        with diversity on, one per category into the bests, ties aside.
        When the floors keep more cells than that over the block (counting
        every category of the index, so the test reads no shard grouping) —
        a first block whose floor is a low category maximum, on a shard of
        near copies — only the cells that can still win stay
        (:meth:`_winners`).
        """
        data = block.data
        floor = self.pool_scores[queries, -1]
        if self.diverse:
            floor = np.minimum(floor, self.kth_best[queries])
        if floor.min() >= _SMALLEST_NORMAL:
            cells, taken = block.scores_at_least(floor)
        else:
            scores = block.scores()
            if floor.min() == -math.inf:
                floor = np.maximum(floor, self._block_floor(data, scores))
            cells = np.flatnonzero(scores >= floor[:, None])
            taken = scores.ravel()[cells]
        room = self.pool_size + (self.best_scores.shape[1] if self.diverse else 0)
        if cells.shape[0] > queries.shape[0] * room:
            # A cell below its floor wins nothing.  -inf stands in for it,
            # which moves no kept cell against its row's 2k-th score or its
            # category's maximum, so _winners keeps the same cells.
            kept = np.full((queries.shape[0], data.total), -math.inf)
            kept.ravel()[cells] = taken
            cells = self._winners(data, kept, cells)
            taken = kept.ravel()[cells]
        # ``flatnonzero`` then ``divmod``: a 2-D ``nonzero`` costs ~10x more.
        owner, rows = np.divmod(cells, data.total)
        if owner.shape[0]:
            self._wave.append((
                queries, owner + self._wave_width, taken,
                data.seqs[rows], np.full(rows.shape, data.key), rows, data.codes[rows],
            ))
            self._wave_width += queries.shape[0]

    def _winners(self, data: _ShardData, scores: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The flat ``cells`` of ``scores`` that a merge can still take.

        A cell below its row's ``2k``-th largest score has ``2k`` cells of
        its own block ahead of it, so it never enters the pool; one below
        its category's maximum in the row is never that category's best.
        Every other cell stays: those at or above the ``2k``-th score and
        those equal to their category's maximum, ties included, since the
        merges break a tie by sequence.
        """
        owner, rows = np.divmod(cells, data.total)
        taken = scores[owner, rows]
        column = data.total - self.pool_size
        wins = taken >= np.partition(scores, column, axis=1)[owner, column]
        if self.diverse:
            perm, starts = data.groups()
            maxima = np.maximum.reduceat(np.take(scores, perm, axis=1), starts, axis=1)
            wins |= taken == maxima[owner, data.row_groups()[rows]]
        return cells[wins]

    def merge_wave(self) -> None:
        """Merge every cell the wave's blocks kept, in one step per kind.

        A query nominates at most one shard per wave, so the blocks' query
        rows are disjoint: one merge over all their cells orders each
        query's run exactly as one merge per block would, and leaves the
        same pools, bests and ``kth_best``.
        """
        if not self._wave:
            return
        if len(self._wave) == 1:
            cells = self._wave[0]
        else:
            cells = tuple(np.concatenate(column) for column in zip(*self._wave))
        self._wave, self._wave_width = [], 0
        self._merge_pool(*cells)
        if self.diverse:
            self._merge_bests(*cells)

    def _block_floor(self, data: _ShardData, scores: np.ndarray) -> Union[np.ndarray, float]:
        """Per row of a scored block, a floor that block alone justifies.

        With diversity on and at least ``2k`` finite category maxima in the
        row (one ``reduceat`` over the cached grouping), it is the ``2k``-th
        largest maximum: those ``2k`` distinct cells are at or above it, so
        the merged pool's minimum is too, and the K-th largest maximum —
        no lower — bounds the new ``kth_best`` from below.  Any other row
        gets :func:`_score_floor`.  A block no wider than ``2k`` needs no
        floor work: every row takes each of its finite cells.
        """
        size = self.pool_size
        if data.total <= size:
            return _LOWEST
        if not self.diverse:
            return _score_floor(scores, size)
        perm, starts = data.groups()
        maxima = np.maximum.reduceat(np.take(scores, perm, axis=1), starts, axis=1)
        column = maxima.shape[1] - size
        if column < 0:
            return _score_floor(scores, size, maxima)
        floor = np.partition(maxima, column, axis=1)[:, column]
        rest = np.flatnonzero(floor == -math.inf)
        if rest.shape[0]:
            floor[rest] = _score_floor(scores[rest], size, maxima[rest])
        return floor

    def _merge_pool(
        self,
        queries: np.ndarray,
        owner: np.ndarray,
        scores: np.ndarray,
        seqs: np.ndarray,
        keys: np.ndarray,
        rows: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """Merge cells into the pools of the distinct query rows ``queries``.

        Cell ``i`` belongs to query row ``queries[owner[i]]`` and is shard
        ``keys[i]``'s row ``rows[i]``, scoring ``scores[i]``, with sequence
        ``seqs[i]`` and category code ``codes[i]``.  One flat ``lexsort``
        orders every pool slot of ``queries`` and every cell by (query,
        score desc, seq asc); each query's run starts with its ``2k`` pool
        slots, so its first ``2k`` entries are its new pool.
        """
        size = self.pool_size
        block = queries.shape[0]
        owners = np.concatenate((np.repeat(np.arange(block), size), owner))
        merged_scores = np.concatenate((self.pool_scores[queries].ravel(), scores))
        merged_seqs = np.concatenate((self.pool_seqs[queries].ravel(), seqs))
        order = np.lexsort((merged_seqs, -merged_scores, owners))
        runs = np.bincount(owner, minlength=block) + size
        kept = order[((np.cumsum(runs) - runs)[:, None] + np.arange(size)).ravel()]
        self.pool_scores[queries] = merged_scores[kept].reshape(block, size)
        self.pool_seqs[queries] = merged_seqs[kept].reshape(block, size)
        for pool, fresh in (
            (self.pool_keys, keys), (self.pool_rows, rows), (self.pool_codes, codes)
        ):
            merged = np.concatenate((pool[queries].ravel(), fresh))
            pool[queries] = merged[kept].reshape(block, size)

    def _merge_bests(
        self,
        queries: np.ndarray,
        owner: np.ndarray,
        scores: np.ndarray,
        seqs: np.ndarray,
        keys: np.ndarray,
        rows: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """Fold the cells' per-category argmaxes into the bests (cells as in
        :meth:`_merge_pool`).

        One flat ``lexsort`` by (query, category, score desc, seq asc) puts
        each (query, category) run's argmax first.  It replaces the held
        best when it wins by (score desc, seq asc), a full scan's
        tie-breaking; ``kth_best`` is then recomputed for ``queries``.
        """
        order = np.lexsort((seqs, -scores, codes, owner))
        cell = owner[order] * self.best_scores.shape[1] + codes[order]
        first = order[np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))]
        cells = (queries[owner[first]], codes[first])
        scores, seqs, keys, rows = scores[first], seqs[first], keys[first], rows[first]
        held, held_seqs = self.best_scores[cells], self.best_seqs[cells]
        improve = (scores > held) | ((scores == held) & (seqs < held_seqs))
        if not improve.any():
            return
        self.best_scores[cells] = np.where(improve, scores, held)
        self.best_seqs[cells] = np.where(improve, seqs, held_seqs)
        self.best_keys[cells] = np.where(improve, keys, self.best_keys[cells])
        self.best_rows[cells] = np.where(improve, rows, self.best_rows[cells])
        column = self.best_scores.shape[1] - self.k
        if column >= 0:
            self.kth_best[queries] = np.partition(
                self.best_scores[queries], column, axis=1
            )[:, column]


class ShardedVectorIndex:
    """Entries partitioned by time window; queries scan only relevant shards.

    Implements the :class:`~repro.vectordb.index.VectorIndex` protocol and
    returns what a full scan of every entry would (see module docstring for
    the exactness argument); how much of the history each query actually
    touches is what :meth:`stats` reports.
    """

    def __init__(
        self,
        similarity: Optional[SimilarityConfig] = None,
        window_days: float = DEFAULT_WINDOW_DAYS,
        compaction: Optional[CompactionPolicy] = None,
    ) -> None:
        if window_days <= 0:
            raise ValueError("window_days must be positive")
        self.window_days = float(window_days)
        self.compaction = compaction or CompactionPolicy()
        self._similarity = similarity or SimilarityConfig()
        self._shards: Dict[int, _Shard] = {}
        self._locator: Dict[str, int] = {}  # incident id -> shard key
        self._next_seq = 0
        self._dim: Optional[int] = None
        self._cat_code: Dict[str, int] = {}
        self._cat_names: List[str] = []  # code -> name
        # routing ranges: ``_ranges`` holds (start_day, end_day, key) sorted
        # by start_day, ``_range_starts``/``_ends``/``_keys`` the same as
        # arrays behind a sentinel range that covers no day
        self._ranges: List[Tuple[float, float, int]] = []
        self._rebuild_ranges()
        self._next_shard_key = 0
        self._inserts_since_compact = 0
        # the snapshot directory the shards' ``saved`` markers refer to
        self._saved_dir: Optional[str] = None
        # scan statistics (cumulative over the index lifetime)
        self._queries = 0
        self._shards_considered = 0
        self._shards_scanned = 0
        self._shards_pruned = 0
        self._shards_skipped = 0
        self._entries_scanned = 0
        self._entries_considered = 0
        # compaction statistics (cumulative over the index lifetime)
        self._compactions = 0
        self._shards_merged = 0
        self._shards_split = 0
        # save statistics (cumulative over the index lifetime)
        self._saves = 0
        self._save_shards_written = 0
        self._save_bytes_written = 0

    def close(self) -> None:
        """Nothing to release; idempotent.

        Shards loaded from segments keep their pages mapped through their
        own views (a mapping goes when its shard does).
        """

    # --------------------------------------------------------------- protocol
    @property
    def similarity(self) -> SimilarityConfig:
        """The similarity configuration shared by every shard's scorer."""
        return self._similarity

    @similarity.setter
    def similarity(self, config: SimilarityConfig) -> None:
        self._similarity = config

    @property
    def dim(self) -> Optional[int]:
        """Embedding dimensionality (None until the first insert)."""
        return self._dim

    def __len__(self) -> int:
        return len(self._locator)

    def __contains__(self, incident_id: str) -> bool:
        return incident_id in self._locator

    def get(self, incident_id: str) -> Optional[VectorEntry]:
        """Fetch one stored entry by incident id."""
        key = self._locator.get(incident_id)
        if key is None:
            return None
        shard = self._shards[key]
        return shard.entry(shard.row_of(incident_id), self._cat_names)

    def categories(self) -> List[str]:
        """Distinct categories present across all shards (sorted)."""
        present: Set[int] = set()
        for shard in self._shards.values():
            present.update(shard.present_codes().tolist())
        return sorted(self._cat_names[code] for code in present)

    def shard_sizes(self) -> Dict[int, int]:
        """Entries per shard key (the index's time-window layout)."""
        return {key: len(shard) for key, shard in sorted(self._shards.items())}

    # ------------------------------------------------------------------ insert
    def _code_for(self, category: str) -> int:
        code = self._cat_code.get(category)
        if code is None:
            code = len(self._cat_code)
            self._cat_code[category] = code
            self._cat_names.append(category)
        return code

    def _rebuild_ranges(self) -> None:
        self._ranges = sorted(
            (shard.start_day, shard.end_day, key)
            for key, shard in self._shards.items()
        )
        starts, ends, keys = zip((-math.inf, -math.inf, -1), *self._ranges)
        self._range_starts = np.array(starts, dtype=np.float64)
        self._range_ends = np.array(ends, dtype=np.float64)
        self._range_keys = np.array(keys, dtype=np.int64)

    def _next_key(self) -> int:
        """A shard key no live or bucket-derived shard has claimed yet."""
        key = self._next_shard_key
        if self._shards:
            key = max(key, max(self._shards) + 1)
        self._next_shard_key = key + 1
        return key

    def _open_shard(self, created_day: float) -> _Shard:
        """A fresh shard for ``created_day``, which no routing range covers.

        Fresh shards cover exactly one ``window_days`` bucket (key == time
        bucket, like the original layout, unless a compacted shard already
        holds that key).
        """
        bucket = time_bucket(created_day, self.window_days)
        key = bucket if bucket not in self._shards else self._next_key()
        shard = _Shard(
            key,
            start_day=bucket * self.window_days,
            end_day=(bucket + 1) * self.window_days,
        )
        self._shards[key] = shard
        self._rebuild_ranges()
        return shard

    def _route(self, days: np.ndarray) -> np.ndarray:
        """Destination shard key of every row, as routing row by row would give.

        Recorded day ranges take precedence over buckets, so inserts into a
        compacted region land in the compacted shard instead of resurrecting
        the pre-compaction bucket.  One ``searchsorted`` over the range
        starts routes every row a range covers.  The ranges cover whole
        buckets, so a row no range covers lies in a bucket none covers:
        :meth:`_open_shard` opens one shard per such bucket, in the order of
        each bucket's first row, and every row of the bucket goes there.
        """
        position = self._range_starts.searchsorted(days, side="right") - 1
        keys = self._range_keys[position]
        uncovered = np.flatnonzero(days >= self._range_ends[position])
        if uncovered.shape[0]:
            buckets = np.floor(days[uncovered] / self.window_days)
            _, first, bucket_of = np.unique(buckets, return_index=True, return_inverse=True)
            opened = np.empty(first.shape, dtype=np.int64)
            for bucket in np.argsort(first):
                opened[bucket] = self._open_shard(float(days[uncovered[first[bucket]]])).key
            keys[uncovered] = opened[bucket_of]
        return keys

    def add(
        self,
        incident_id: str,
        vector: np.ndarray,
        created_day: float,
        category: str,
        text: str = "",
    ) -> None:
        """Insert one labelled incident embedding into its time-window shard."""
        self.add_many(
            incident_ids=[incident_id],
            vectors=np.asarray(vector, dtype=np.float64).reshape(1, -1),
            created_days=[created_day],
            categories=[category],
            texts=[text],
        )

    def add_many(
        self,
        incident_ids: Sequence[str],
        vectors: np.ndarray,
        created_days: Sequence[float],
        categories: Sequence[str],
        texts: Optional[Sequence[str]] = None,
    ) -> None:
        """Bulk insert, routing each row to its time-window shard.

        Validation happens up front (alignment, duplicate ids, finite days,
        dimension), and every row is snapped into the buffer block its shard
        will store it in before any shard stores a row, so a rejected batch
        leaves every shard untouched; global insertion sequence numbers
        follow the batch order, so ties break by insertion order exactly
        as in a full scan.

        Raises:
            ValueError: for a batch :func:`validate_batch` rejects, or naming
                the first id whose vector :func:`.scoring.snap` refuses (NaN,
                infinite or too long).
        """
        vectors, days = validate_batch(
            incident_ids, vectors, created_days, categories, texts, self._locator, self._dim
        )
        count = vectors.shape[0]
        if count == 0:
            return
        next_shard_key = self._next_shard_key
        keys = self._route(days)
        # Each row's category is looked up once, in batch (memory) order, in
        # a table of the batch's own names; grouped rows then share one
        # object per name.
        names = list(dict.fromkeys(categories))
        local = np.fromiter(
            map({name: code for code, name in enumerate(names)}.__getitem__, categories),
            np.int64,
            count,
        )
        ids = incident_ids
        if (keys == keys[0]).all():
            # One destination shard (every single-row add): nothing to group.
            order, groups = None, [(int(keys[0]), 0, count)]
            seqs = np.arange(self._next_seq, self._next_seq + count)
        else:
            # Group rows by destination *shard* (not bucket: a compacted
            # shard can cover several buckets), groups in order of first
            # appearance and batch order within each group, so global
            # sequence numbers stay ascending per shard — the invariant the
            # stable-sort candidate extraction relies on.
            order, groups = _group_rows(keys)
            ids = np.array(incident_ids, dtype=object)[order].tolist()
            if texts is not None:
                texts = np.array(texts, dtype=object)[order].tolist()
            local, seqs = local[order], order + self._next_seq
        refused = []
        for key, lo, hi in groups:
            block = self._shards[key].reserve(hi - lo, vectors.shape[1])
            bad = snap(vectors, block, None if order is None else order[lo:hi])
            if bad is not None:
                refused.append(lo + bad)
        if refused:
            self._reject(vectors, incident_ids, refused, order, keys, next_shard_key)
        # New categories take codes in first appearance over the *grouped*
        # rows, not in row-at-a-time order; no result depends on the
        # numbering (the snapshot's codes file does).
        for code in dict.fromkeys(local.tolist()):
            self._code_for(names[code])
        codes = np.array([self._cat_code[name] for name in names], dtype=np.int64)[local]
        for key, lo, hi in groups:
            self._shards[key].append(
                ids[lo:hi], days, None if texts is None else texts[lo:hi],
                seqs[lo:hi], codes[lo:hi],
                rows=None if order is None else order[lo:hi],
            )
        self._dim = vectors.shape[1]
        self._locator.update(zip(incident_ids, keys.tolist()))
        self._next_seq += count
        self._inserts_since_compact += count
        if (
            self.compaction.auto
            and self._inserts_since_compact >= self.compaction.check_every
        ):
            self._inserts_since_compact = 0
            report = self.compact()
            if report.get("shards_deferred"):
                # A rewrite budget left work behind: stay primed so the
                # next insert wave continues the backlog instead of
                # waiting out another full cadence.
                self._inserts_since_compact = self.compaction.check_every

    def _reject(self, vectors, incident_ids, refused, order, keys, next_shard_key) -> None:
        """Undo what routing a refused batch did, then raise for its first refused row.

        ``refused`` holds each refusing group's first position in grouped
        ``order`` (batch order when None).  The shards the batch opened are
        still empty: they close again, and the key counter goes back.
        """
        positions = np.asarray(refused)
        row = int((positions if order is None else order[positions]).min())
        for key in set(keys.tolist()):
            if not self._shards[key].ids:
                del self._shards[key]
        self._next_shard_key = next_shard_key
        self._rebuild_ranges()
        raise rejected(vectors[row], f"in vector store: {incident_ids[row]}")

    # ------------------------------------------------------------------ update
    def update_category(self, incident_id: str, category: str) -> None:
        """Correct a stored category in place (OCE feedback path).

        Raises:
            KeyError: with the offending id, when the incident was never
                indexed — mislabelled feedback must fail loudly.
        """
        key = self._locator.get(incident_id)
        if key is None:
            raise KeyError(f"unknown incident id in vector index: {incident_id}")
        shard = self._shards[key]
        shard.relabel(shard.row_of(incident_id), self._code_for(category))

    # ------------------------------------------------------------------ search
    def search(
        self,
        query_vector: np.ndarray,
        query_day: float,
        k: Optional[int] = None,
        exclude_ids: Optional[Set[str]] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[Neighbor]:
        """Top-K neighbours of one query (delegates to the batch path)."""
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
        """Top-K neighbours for a whole query batch, scanning eligible shards only.

        The batch is processed in *waves*: every query nominates the next
        shard it cannot skip (nearest-in-time first, after exact filters and
        the score-bound pruning test), nominations are grouped so each shard
        is scored once per wave with one matrix–matrix product over its
        nominating sub-batch, and the scored block is folded into the
        batch-major :class:`_ScanState` in one step.  Waves repeat until
        every query has either scanned or pruned every shard.
        Results are identical to a full scan of every entry.
        """
        k = k or self._similarity.k
        # An empty category filter means "no filter".
        categories = categories or None
        queries = np.asarray(query_matrix, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("query_matrix must be a 2-D (batch, dim) array")
        if exclude_ids is not None and len(exclude_ids) != queries.shape[0]:
            raise ValueError("exclude_ids must align with query_matrix rows")
        days = np.asarray(query_days, dtype=np.float64).ravel()
        if days.shape[0] != queries.shape[0]:
            raise ValueError("query_days must align with query_matrix rows")
        total_queries = queries.shape[0]
        if total_queries == 0:
            return []
        augmented = augment_queries(queries)
        if not self._locator:
            return [[] for _ in range(total_queries)]
        if self._dim is not None and queries.shape[1] != self._dim:
            raise ValueError(
                f"query dimension {queries.shape[1]} does not match store dimension {self._dim}"
            )
        # Recurring incidents produce identical queries (paper Figure 2);
        # each distinct (snapped vector, day, effective exclusions) group is
        # scanned once.
        # Exclusion ids absent from the index cannot change the result.
        group_of: List[int] = []
        group_rows: List[int] = []
        group_excludes: List[Optional[Set[str]]] = []
        group_index: Dict[tuple, int] = {}
        for row in range(total_queries):
            raw_exclude = exclude_ids[row] if exclude_ids is not None else None
            effective = (
                frozenset(
                    incident_id
                    for incident_id in raw_exclude
                    if incident_id in self._locator
                )
                if raw_exclude
                else frozenset()
            )
            group_key = (augmented[row].tobytes(), float(days[row]), effective)
            index = group_index.get(group_key)
            if index is None:
                index = len(group_rows)
                group_index[group_key] = index
                group_rows.append(row)
                group_excludes.append(set(effective) if effective else None)
            group_of.append(index)
        if len(group_rows) == total_queries:
            return self._scan(
                augmented, days, k, exclude_ids, history_before_day, categories
            )
        grouped = self._scan(
            augmented[group_rows], days[group_rows], k, group_excludes,
            history_before_day, categories,
        )
        # Deduplicated rows count toward queries and the considered
        # denominators (a naive scan would have scored them too) but
        # contribute no scans — they reuse a group's result.
        duplicates = total_queries - len(group_rows)
        self._queries += duplicates
        self._shards_considered += duplicates * len(self._shards)
        self._entries_considered += duplicates * len(self._locator)
        return [list(grouped[group_of[row]]) for row in range(total_queries)]

    def _scan(
        self,
        queries: np.ndarray,
        days: np.ndarray,
        k: int,
        exclude_ids: Optional[Sequence[Optional[Set[str]]]],
        history_before_day: Optional[float],
        categories: Optional[Set[str]],
    ) -> List[List[Neighbor]]:
        """The wave scan of :meth:`search_many` for distinct augmented ``queries``."""
        total_queries = queries.shape[0]
        diverse = self._similarity.diverse_categories
        alpha = self._similarity.alpha
        shard_keys = sorted(self._shards)
        # Vectorised per-query shard ordering: dt_min of every (query, shard)
        # pair in one broadcast, stable argsort so ties fall back to
        # ascending shard key exactly like a (dt_min, key) tuple sort.
        min_days = np.array([self._shards[key].min_day for key in shard_keys])
        max_days = np.array([self._shards[key].max_day for key in shard_keys])
        day_column = days[:, None]
        dt_matrix = np.where(
            (min_days <= day_column) & (day_column <= max_days),
            0.0,
            np.minimum(np.abs(day_column - min_days), np.abs(day_column - max_days)),
        )
        orderings = np.argsort(dt_matrix, axis=1, kind="stable")
        # Score upper bounds from the same ``np.exp`` the scores come from:
        # ``math.exp`` can differ by an ulp, enough to prune an exact tie.
        bound_matrix = np.exp(-alpha * dt_matrix)
        states = [
            _QueryState(list(zip(bounds, keys)))
            for bounds, keys in zip(
                bound_matrix[np.arange(total_queries)[:, None], orderings].tolist(),
                np.asarray(shard_keys)[orderings].tolist(),
            )
        ]
        scan = _ScanState(total_queries, len(self._cat_code), k, diverse)
        # The batch-wide filters, as the shard rows they remove: compiled
        # once per shard on its first scan and shared by every later wave.
        # A category filter also names the shards it leaves no row of.
        allowed_codes: Optional[np.ndarray] = None
        barren: Set[int] = set()
        if categories is not None:
            allowed_codes = np.array(
                [self._cat_code[name] for name in categories if name in self._cat_code],
                dtype=np.int64,
            )
            barren = {
                key for key, shard in self._shards.items()
                if not np.isin(shard.present_codes(), allowed_codes).any()
            }
        filtered: Dict[int, np.ndarray] = {}
        while True:
            nominations: Dict[int, List[int]] = {}
            for qi, state in enumerate(states):
                if state.done:
                    continue
                key = self._advance(
                    state, scan, qi, diverse, history_before_day, barren, allowed_codes
                )
                if key is None:
                    state.done = True
                else:
                    nominations.setdefault(key, []).append(qi)
            if not nominations:
                break
            for key in sorted(nominations):
                nominated = nominations[key]
                shard = self._shards[key]
                data = shard.data()
                block = np.array(nominated)
                if history_before_day is not None or allowed_codes is not None:
                    if key not in filtered:
                        filtered[key] = _filtered_rows(
                            data, history_before_day, allowed_codes
                        )
                excluded: List[Tuple[int, List[int]]] = []
                if exclude_ids is not None:
                    for position, qi in enumerate(nominated):
                        rows = self._exclude_rows(shard, exclude_ids[qi])
                        if rows:
                            excluded.append((position, rows))
                scan.fold(block, _Block(
                    data, queries[block], days[block], alpha,
                    np.array([states[qi].bound for qi in nominated]),
                    filtered.get(key), excluded,
                ))
                self._entries_scanned += data.total * len(nominated)
                for qi in nominated:
                    states[qi].scanned += 1
                    states[qi].pos += 1
            scan.merge_wave()
        results = self._finalize(scan, k, diverse)
        shard_count = len(self._shards)
        self._queries += total_queries
        self._shards_considered += total_queries * shard_count
        self._entries_considered += total_queries * len(self._locator)
        for state in states:
            self._shards_scanned += state.scanned
            self._shards_pruned += state.pruned
            self._shards_skipped += state.skipped
        return results

    def _advance(
        self,
        state: _QueryState,
        scan: _ScanState,
        qi: int,
        diverse: bool,
        history_before_day: Optional[float],
        barren: Set[int],
        allowed_codes: Optional[np.ndarray],
    ) -> Optional[int]:
        """Next shard query ``qi`` must scan, or None once it is finished.

        Walks the query's shards nearest-in-time first, skipping those the
        exact filters empty (``barren``: no row in an allowed category) or
        :meth:`_can_prune` rules out.  With diversity on, the first shard
        whose bound lies strictly below the K-th best covered category
        *finishes* the query: ``order`` ascends in ``dt_min``, so every
        later bound is no higher, and the remaining shards are all
        accounted as pruned in one step.
        """
        while state.pos < len(state.order):
            upper_bound, key = state.order[state.pos]
            shard = self._shards[key]
            # Exact filters: no eligible entry can exist in the shard.
            if history_before_day is not None and shard.min_day >= history_before_day:
                state.skipped += 1
                state.pos += 1
                continue
            if key in barren:
                state.skipped += 1
                state.pos += 1
                continue
            if diverse and scan.kth_best[qi] > upper_bound:
                state.pruned += len(state.order) - state.pos
                state.pos = len(state.order)
                return None
            if self._can_prune(scan, qi, shard, upper_bound, diverse, allowed_codes):
                state.pruned += 1
                state.pos += 1
                continue
            return key
        return None

    def _can_prune(
        self,
        scan: _ScanState,
        qi: int,
        shard: _Shard,
        upper_bound: float,
        diverse: bool,
        allowed_codes: Optional[np.ndarray],
    ) -> bool:
        """The filler-exact exit, for shards the K-category exit does not settle.

        True when no entry of ``shard`` can enter query ``qi``'s result: a
        full candidate pool strictly above the shard's score upper bound
        and — with diversity on — every (allowed) category present in the
        shard already covered by a strictly better candidate.  Strict
        inequalities keep tie-breaking identical to a full scan.
        """
        if scan.pool_scores[qi, -1] <= upper_bound:
            return False
        if diverse:
            present = shard.present_codes()
            if allowed_codes is not None:
                present = present[np.isin(present, allowed_codes)]
            return bool(np.all(scan.best_scores[qi, present] > upper_bound))
        return True

    def _exclude_rows(self, shard: _Shard, exclude: Optional[Set[str]]) -> List[int]:
        """The shard-local rows of a query's exclusion ids."""
        if not exclude:
            return []
        return [
            shard.row_of(incident_id)
            for incident_id in exclude
            if self._locator.get(incident_id) == shard.key
        ]

    def _finalize(self, scan: _ScanState, k: int, diverse: bool) -> List[List[Neighbor]]:
        """Select every query's final neighbours from its merged candidates.

        A query's candidates are its pool plus — diversity on — its
        category bests, each entry once: sequences are unique, so a pool
        slot holding its category's recorded best sequence *is* that best
        and is dropped (a category with no recorded best keeps seq 0, so
        only a finite best counts).  One row-wise ``lexsort`` orders them
        by (score desc, seq asc), empty ``-inf`` slots last and cut.
        Category codes name categories one to one, so
        :func:`select_complete_order` walks codes and only the picked
        entries are fetched.
        """
        scores, keys, rows, codes = (
            scan.pool_scores, scan.pool_keys, scan.pool_rows, scan.pool_codes
        )
        if diverse:
            every = np.arange(scores.shape[0])[:, None]
            repeated = (scan.best_seqs[every, codes] == scan.pool_seqs) & (
                scan.best_scores[every, codes] > -math.inf
            )
            scores = np.concatenate(
                (np.where(repeated, -math.inf, scores), scan.best_scores), axis=1
            )
            seqs = np.concatenate((scan.pool_seqs, scan.best_seqs), axis=1)
            order = np.lexsort((seqs, -scores), axis=-1)
            best_codes = np.arange(scan.best_scores.shape[1])[None, :].repeat(
                scores.shape[0], axis=0
            )
            scores = scores[every, order]
            keys, rows, codes = (
                np.concatenate(pair, axis=1)[every, order]
                for pair in (
                    (keys, scan.best_keys), (rows, scan.best_rows), (codes, best_codes)
                )
            )
        results: List[List[Neighbor]] = []
        counts = (scores > -math.inf).sum(axis=1).tolist()
        for qi, count in enumerate(counts):
            picks = select_complete_order(codes[qi, :count].tolist(), k, diverse)
            results.append(
                [
                    Neighbor(
                        entry=self._shards[key].entry(row, self._cat_names), similarity=score
                    )
                    for key, row, score in zip(
                        keys[qi, picks].tolist(),
                        rows[qi, picks].tolist(),
                        scores[qi, picks].tolist(),
                    )
                ]
            )
        return results

    # ------------------------------------------------------------- compaction
    def _build_shard(
        self,
        start_day: float,
        end_day: float,
        sources: List[_Shard],
        picks: np.ndarray,
    ) -> _Shard:
        """A fresh shard holding rows ``picks`` of the ``sources``' rows laid end to end.

        ``picks`` lists the rows in ascending-seq order.  Whole
        ``[x, |x|^2, 1]`` columns of the sources' blocks and the other array
        columns are gathered by fancy indexing, list columns by one
        object-array take each; rows keep their sequences and category codes.
        """

        def joined(columns):
            return columns[0] if len(columns) == 1 else np.concatenate(columns)

        def objects(columns):
            return joined([np.array(column, dtype=object) for column in columns])[picks].tolist()

        datas = [source.data() for source in sources]
        shard = _Shard(self._next_key(), start_day, end_day)
        block = shard.reserve(picks.shape[0], self._dim)
        if len(sources) == 1:  # a split: gather straight from the source's buffer
            sources[0].take_columns(picks, block)
        else:
            blocks = np.concatenate([data.block for data in datas], axis=1)
            np.take(blocks, picks, axis=1, out=block, mode="clip")
        shard.append(
            objects([source.ids for source in sources]),
            joined([data.days for data in datas]),
            objects([source.texts for source in sources]),
            joined([data.seqs for data in datas])[picks],
            joined([data.codes for data in datas])[picks],
            rows=picks,
        )
        return shard

    def _adopt(self, shard: _Shard) -> None:
        self._shards[shard.key] = shard
        self._locator.update(dict.fromkeys(shard.ids, shard.key))

    def _split_shard(self, shard: _Shard, ceiling: int, floor: int) -> List[_Shard]:
        """Split one hot shard into day-bounded chunks of roughly equal size.

        Cuts are placed at positions where the (sorted) creation day
        strictly increases, so the resulting routing ranges stay disjoint;
        rows inside each chunk keep their original (ascending-seq) order.
        When every entry shares one creation day no cut exists and the
        shard is left alone — splitting such a shard would break routing.
        """
        size = len(shard)
        target = max(1, floor, ceiling // 2)
        chunk_count = math.ceil(size / target)
        if chunk_count <= 1:
            return [shard]
        days = shard.data().days
        order = np.argsort(days, kind="stable")
        sorted_days = days[order]
        cut_positions: List[int] = []
        for chunk in range(1, chunk_count):
            ideal = round(chunk * size / chunk_count)
            position = ideal
            while position < size and sorted_days[position] == sorted_days[position - 1]:
                position += 1
            if position >= size:
                position = ideal
                while position > 0 and sorted_days[position] == sorted_days[position - 1]:
                    position -= 1
                if position <= 0:
                    continue
            cut_positions.append(position)
        cut_days = sorted({float(sorted_days[position]) for position in cut_positions})
        if not cut_days:
            return [shard]
        edges = [shard.start_day, *cut_days, shard.end_day]
        pieces: List[_Shard] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            rows = np.flatnonzero((lo <= days) & (days < hi))
            if rows.size:
                pieces.append(self._build_shard(lo, hi, [shard], rows))
        # Stretch the first/last piece to the shard's full routing range so
        # the union of ranges is preserved exactly.
        pieces[0].start_day = shard.start_day
        pieces[-1].end_day = shard.end_day
        return pieces

    def _merge_shards(self, group: List[_Shard]) -> _Shard:
        """Merge adjacent cold shards, re-sorting rows by global sequence."""
        return self._build_shard(
            min(shard.start_day for shard in group),
            max(shard.end_day for shard in group),
            group,
            np.argsort(np.concatenate([shard.data().seqs for shard in group]), kind="stable"),
        )

    def compact(
        self,
        min_entries: Optional[int] = None,
        max_entries: Optional[int] = None,
        max_rewrite_shards: Optional[int] = None,
    ) -> Dict[str, float]:
        """Rebalance the shard layout: split hot shards, merge cold runs.

        Splits every shard above the size ceiling at day boundaries, then
        merges runs of time-adjacent shards below the size floor (stopping
        before a merged shard would exceed the ceiling).  Entry metadata,
        global sequence numbers and therefore *search results* are
        untouched — only the layout (and the scanned-shard economics)
        changes.  Thresholds default to the index's
        :class:`CompactionPolicy`.

        ``max_rewrite_shards`` (default: the policy's) bounds how many
        *source* shards one call rewrites, keeping the pause a compaction
        inflicts on an ingest wave O(budget) instead of O(backlog): a
        split consumes one unit, merging a run consumes the run's length,
        and whatever does not fit is reported as ``shards_deferred`` so
        auto-compaction stays primed to continue on the next wave.

        Returns:
            A report: shards before/after, how many were merged/split, how
            many qualifying rewrites the budget deferred, and the
            resulting max/median shard sizes.
        """
        floor = self.compaction.min_entries if min_entries is None else min_entries
        ceiling = self.compaction.max_entries if max_entries is None else max_entries
        budget = (
            self.compaction.max_rewrite_shards
            if max_rewrite_shards is None
            else max_rewrite_shards
        )
        if ceiling <= 0:
            raise ValueError("max_entries must be positive")
        if floor < 0:
            raise ValueError("min_entries must be non-negative")
        if budget is not None and budget < 1:
            raise ValueError("max_rewrite_shards must be positive (or None for unlimited)")
        if floor and ceiling < 2 * floor:
            # Same invariant CompactionPolicy enforces: otherwise a split
            # produces sub-floor pieces the merge pass can never recombine
            # (their sum exceeds the ceiling), leaving the layout worse.
            raise ValueError(
                "max_entries must be at least twice min_entries, or split "
                "pieces would immediately re-qualify for merging"
            )
        remaining = math.inf if budget is None else float(budget)
        deferred = 0
        shards_before = len(self._shards)
        split_sources = 0
        merged_sources = 0
        # ---- split pass: hot shards above the ceiling
        for key in sorted(self._shards):
            shard = self._shards[key]
            if len(shard) <= ceiling:
                continue
            if shard.max_day <= shard.min_day:
                # Single-day shard: unsplittable regardless of budget, so
                # it must not occupy (or defer) rewrite slots forever.
                continue
            if remaining < 1:
                deferred += 1
                continue
            pieces = self._split_shard(shard, ceiling, floor)
            if len(pieces) <= 1:
                continue
            del self._shards[key]
            for piece in pieces:
                self._adopt(piece)
            split_sources += 1
            remaining -= 1
        # ---- merge pass: runs of time-adjacent shards below the floor
        if floor > 0:
            ordered = sorted(
                self._shards.values(), key=lambda shard: (shard.start_day, shard.key)
            )
            groups: List[List[_Shard]] = []
            run: List[_Shard] = []
            run_size = 0
            for shard in ordered:
                size = len(shard)
                if size < floor and run_size + size <= ceiling:
                    run.append(shard)
                    run_size += size
                    continue
                if len(run) >= 2:
                    groups.append(run)
                if size < floor:
                    run, run_size = [shard], size
                else:
                    run, run_size = [], 0
            if len(run) >= 2:
                groups.append(run)
            for group in groups:
                if remaining < len(group):
                    # Merge the prefix that fits (a merged prefix is still a
                    # valid, strictly better layout) and defer the rest.
                    take = int(remaining)
                    if take < 2:
                        deferred += len(group)
                        continue
                    deferred += len(group) - take
                    group = group[:take]
                merged = self._merge_shards(group)
                for shard in group:
                    del self._shards[shard.key]
                self._adopt(merged)
                merged_sources += len(group)
                remaining -= len(group)
        if split_sources or merged_sources:
            self._compactions += 1
            self._shards_split += split_sources
            self._shards_merged += merged_sources
            self._rebuild_ranges()
        sizes = sorted(len(shard) for shard in self._shards.values())
        return {
            "shards_before": float(shards_before),
            "shards_after": float(len(self._shards)),
            "shards_split": float(split_sources),
            "shards_merged": float(merged_sources),
            "shards_deferred": float(deferred),
            "max_shard_size": float(sizes[-1] if sizes else 0),
            "median_shard_size": float(sizes[len(sizes) // 2] if sizes else 0),
        }

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Persist to a directory: a snapshot that costs what changed (v4).

        A snapshot is ``manifest.json`` plus the files it names, flat in
        ``path``: per shard one immutable *segment* (matrix, days, cached
        squared norms, sequences and — in a trailing blob — ids and texts)
        and one *codes* file, the only per-row data ``update_category``
        mutates.  In order, each step durable before the next starts:

        1. a segment, written and fsynced, for every shard whose rows are
           not already in a segment this index committed to (or loaded
           from) ``path`` — every shard for any other directory;
        2. the codes file, whole, written and fsynced;
        3. ``manifest.json.tmp``, written and fsynced;
        4. ``os.replace`` onto ``manifest.json`` — **the commit point**;
        5. ``fsync`` of the directory;
        6. unlink of every segment, codes and ``*.tmp`` file the new
           manifest does not name.

        New files carry a generation above any in the directory, so
        nothing a manifest names is ever rewritten: a save that dies
        before step 4 leaves the previous snapshot untouched (plus debris
        the next save sweeps), one that dies after it leaves the new one,
        and saving onto the directory this index was loaded from never
        touches a file its own shards are mapped from.

        Accepts ``str`` or :class:`pathlib.Path`.
        """
        path = os.path.abspath(os.fspath(path))
        os.makedirs(path, exist_ok=True)
        present = set(os.listdir(path))
        generation = 1 + max(
            (
                int(match.group(1))
                for match in map(_SNAPSHOT_FILE.fullmatch, present)
                if match
            ),
            default=0,
        )
        same_dir = self._saved_dir == path
        written: Dict[int, Tuple[str, int]] = {}
        bytes_written = 0
        shards_meta = []
        codes = []
        for key in sorted(self._shards):
            shard = self._shards[key]
            rows = len(shard)
            saved = shard.saved if same_dir else None
            if saved is None or saved[1] != rows or saved[0] not in present:
                data = shard.data()
                saved = written[key] = (f"seg-{key}-{generation:08d}.bin", rows)
                bytes_written += write_segment(
                    os.path.join(path, saved[0]),
                    {
                        "matrix": data.block[:-2].T,
                        "days": data.days,
                        "sq_norms": data.block[-2],
                        "seqs": data.seqs,
                    },
                    json.dumps([shard.ids, shard.texts]).encode("utf-8"),
                )
            shards_meta.append(
                {
                    "key": key,
                    "rows": rows,
                    "dim": self._dim,
                    "start_day": shard.start_day,
                    "end_day": shard.end_day,
                    "min_day": shard.min_day,
                    "max_day": shard.max_day,
                    "segment": saved[0],
                }
            )
            codes.append(shard.codes.astype("<i8", copy=False))
        codes_name = f"codes-{generation:08d}.bin"
        bytes_written += write_durable(os.path.join(path, codes_name), codes)
        manifest = {
            "format": "sharded-vector-index",
            "version": MANIFEST_VERSION,
            "generation": generation,
            "window_days": self.window_days,
            "next_seq": self._next_seq,
            "next_shard_key": self._next_shard_key,
            "dim": self._dim,
            "categories": self._cat_names,
            "codes": codes_name,
            "shards": shards_meta,
        }
        manifest_path = os.path.join(path, SHARDED_MANIFEST)
        bytes_written += write_durable(
            manifest_path + ".tmp", [json.dumps(manifest).encode("utf-8")]
        )
        os.replace(manifest_path + ".tmp", manifest_path)  # the commit point
        for key, marker in written.items():
            self._shards[key].saved = marker
        self._saved_dir = path
        self._saves += 1
        self._save_shards_written += len(written)
        self._save_bytes_written += bytes_written
        directory = os.open(path, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        live = {SHARDED_MANIFEST, codes_name}
        live.update(meta["segment"] for meta in shards_meta)
        for name in os.listdir(path):
            if name not in live and (
                name.endswith(".tmp") or _SNAPSHOT_FILE.fullmatch(name)
            ):
                os.unlink(os.path.join(path, name))

    @classmethod
    def load(
        cls,
        path,
        similarity: Optional[SimilarityConfig] = None,
        compaction: Optional[CompactionPolicy] = None,
    ) -> "ShardedVectorIndex":
        """Re-open an index written by :meth:`save`.

        Memory-maps every segment the manifest names.  A shard's days and
        sequences are views into its mapping, copied on its first
        subsequent insert; its matrix is snapped into a private row buffer
        the first time the shard is scanned or its vectors read, and the
        segment's squared norms are recomputed from the snapped rows, never
        read.  Snapping is idempotent, so a segment of snapped rows loads to
        the bits it was saved from.  Only the ids/texts blobs and the codes
        file are read eagerly.

        Raises :class:`~repro.core.errors.IndexCorruptionError` — a typed,
        permanent failure — whenever the on-disk state is unreadable:
        undecodable or structurally invalid ``manifest.json``, a manifest
        ``version`` other than 4 (the single-arena layout of version 3 and
        the per-shard ``.npz`` layouts of versions 1 and 2 are no longer
        read), a missing segment or codes file, a segment or codes file
        shorter than the manifest's row counts need, a category code
        outside the manifest's table, an incident id stored twice, a shard
        whose ``dim`` differs from the manifest's or another shard's, or
        shard metadata that does not reconstruct.  A missing manifest stays a
        plain ``FileNotFoundError`` (absent, not corrupt).  Callers that must
        survive corruption go through
        :func:`repro.chaos.load_index_resilient`, which falls back to a
        rebuild-from-store callback.
        """
        path = os.fspath(path)
        manifest_path = os.path.join(path, SHARDED_MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError, OSError, ValueError) as exc:
            raise IndexCorruptionError(
                f"corrupt manifest at {manifest_path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise IndexCorruptionError(
                f"corrupt manifest at {manifest_path}: not a JSON object"
            )
        if manifest.get("format") != "sharded-vector-index":
            raise IndexCorruptionError(f"not a sharded vector index: {path}")
        version = manifest.get("version", 1)
        if version != MANIFEST_VERSION:
            raise IndexCorruptionError(
                f"unsupported manifest version {version!r} at {manifest_path}: "
                f"only version {MANIFEST_VERSION} is readable, rebuild the index"
            )
        try:
            return cls._load_from_manifest(
                path,
                manifest,
                similarity=similarity,
                compaction=compaction,
            )
        except IndexCorruptionError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            raise IndexCorruptionError(f"corrupt index at {path}: {exc}") from exc

    @classmethod
    def _load_from_manifest(
        cls,
        path: str,
        manifest: dict,
        similarity: Optional[SimilarityConfig],
        compaction: Optional[CompactionPolicy],
    ) -> "ShardedVectorIndex":
        """Reconstruct an index from a decoded manifest (see :meth:`load`)."""
        index = cls(
            similarity=similarity,
            window_days=float(manifest["window_days"]),
            compaction=compaction,
        )
        # Seed the category code table in the exact order it was saved so
        # stored per-row codes stay valid.
        for name in manifest["categories"]:
            index._code_for(name)
        codes_path = cls._snapshot_file(path, manifest["codes"])
        try:
            all_codes = np.fromfile(codes_path, dtype="<i8")
        except OSError as exc:
            raise IndexCorruptionError(
                f"missing codes file {codes_path}: {exc}"
            ) from exc
        expected = sum(int(meta["rows"]) for meta in manifest["shards"])
        if all_codes.shape[0] != expected:
            raise IndexCorruptionError(
                f"partial codes file {codes_path}: {all_codes.shape[0]} codes "
                f"on disk, manifest expects {expected}"
            )
        if expected and not 0 <= all_codes.min() <= all_codes.max() < len(index._cat_names):
            raise IndexCorruptionError(f"category code out of range in {codes_path}")
        dim = None if manifest.get("dim") is None else int(manifest["dim"])
        offset = 0
        for meta in manifest["shards"]:
            key, rows = int(meta["key"]), int(meta["rows"])
            segment_path = cls._snapshot_file(path, meta["segment"])
            shard_dim = int(meta["dim"])
            if dim is None:
                dim = shard_dim
            elif shard_dim != dim:
                raise IndexCorruptionError(
                    f"shard {key} ({segment_path}) has dim {shard_dim}, "
                    f"the index has dim {dim}"
                )
            # A partial write or torn copy fails here, not lazily on the
            # first scan of a missing page.
            try:
                views, blob = map_segment(segment_path, rows, shard_dim)
            except (OSError, ValueError) as exc:
                raise IndexCorruptionError(
                    f"unreadable segment {segment_path}: {exc}"
                ) from exc
            ids, texts = json.loads(blob)
            shard = _Shard(
                key, start_day=float(meta["start_day"]), end_day=float(meta["end_day"])
            )
            # A slice of the private ``fromfile`` array: relabels write
            # codes in place, never into a file.
            shard.take_segment(views, ids, texts, all_codes[offset : offset + rows])
            offset += rows
            shard.min_day = float(meta["min_day"])
            shard.max_day = float(meta["max_day"])
            shard.saved = (meta["segment"], rows)
            index._adopt(shard)
            if rows:
                index._dim = shard_dim
        if len(index._locator) != expected:
            raise IndexCorruptionError(f"duplicate incident id in {path}")
        if index._dim is None and manifest.get("dim") is not None:
            index._dim = int(manifest["dim"])
        index._saved_dir = os.path.abspath(path)
        index._next_seq = int(manifest["next_seq"])
        index._next_shard_key = int(manifest.get("next_shard_key", 0))
        index._rebuild_ranges()
        return index

    @staticmethod
    def _snapshot_file(path: str, name: str) -> str:
        """Path of a manifest-named segment/codes file; rejects other names."""
        if not isinstance(name, str) or not _SNAPSHOT_FILE.fullmatch(name):
            raise IndexCorruptionError(f"manifest names a foreign file: {name!r}")
        return os.path.join(path, name)

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        """Layout and scan statistics.

        ``scanned_shard_ratio`` / ``scanned_entry_ratio`` are cumulative over
        the index lifetime: the fraction of (query, shard) and (query, entry)
        pairs that were actually scored rather than skipped or pruned.
        """
        sizes = sorted(len(shard) for shard in self._shards.values())
        return {
            "entries": float(len(self._locator)),
            "shard_count": float(len(self._shards)),
            "max_shard_size": float(sizes[-1] if sizes else 0),
            "median_shard_size": float(sizes[len(sizes) // 2] if sizes else 0),
            "compactions": float(self._compactions),
            "shards_merged": float(self._shards_merged),
            "shards_split": float(self._shards_split),
            "saves": float(self._saves),
            "save_shards_written": float(self._save_shards_written),
            "save_bytes_written": float(self._save_bytes_written),
            "queries": float(self._queries),
            "shards_considered": float(self._shards_considered),
            "shards_scanned": float(self._shards_scanned),
            "shards_pruned": float(self._shards_pruned),
            "shards_skipped": float(self._shards_skipped),
            "entries_scanned": float(self._entries_scanned),
            "scanned_shard_ratio": (
                self._shards_scanned / self._shards_considered
                if self._shards_considered
                else 0.0
            ),
            "scanned_entry_ratio": (
                self._entries_scanned / self._entries_considered
                if self._entries_considered
                else 0.0
            ),
        }
