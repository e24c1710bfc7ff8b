"""The one scoring kernel retrieval calls (Section 4.2.2).

``score_block`` turns a block of query embeddings into the paper's
similarities ``exp(-alpha |day gap|) / (1 + |q - m|)`` against a block of
stored vectors.  Its squared distances are exact, so no block shape, kernel,
blocking, thread count or summation order can change a bit of a score.

**The grid.**  :func:`snap` rounds every stored vector and every query to
a fixed-point grid, ``x = rint(v * 2^20) / 2^20``, still in float64.  The
product of two snapped components is then an integer multiple of 2^-40, and
so is every sum of such products.  The squared norm of a stored or query
vector must stay below :data:`MAX_SQUARED_NORM` = 2^11 (a norm below
~45.25; FastText's document vectors have norm 6): then every partial sum of
``|q|^2 + |m|^2 - 2 q.m`` is at most ``(|q| + |m|)^2 < 4 * 2^11 = 2^13``,
under 2^53 units of 2^-40, so it is exact in a double's 53 bits.  A vector
that breaks the bound, NaN and infinite ones included, is rejected with a
``ValueError``.  Snapping is idempotent: a snapped vector snaps to itself.

**One product.**  A shard keeps each stored vector as an ``[x, |x|^2, 1]``
*column* of one dim-major ``(dim + 2, capacity)`` block; :func:`augment_queries`
turns each query into a ``[-2q, 1, |q|^2]`` row.  The product of the two is
``|q|^2 + |x|^2 - 2 q.x``, the exact squared distance, with nothing to add
around it and nothing to guard: an exact squared distance is never
negative.  The square root, the ``+ 1``, the decay and the division are
elementwise, hence shape-independent too.

The block is dim-major because that is BLAS's own layout for ``queries @
block``: a row-major ``(dim + 2, n)`` operand, taken as it lies, with no
transpose.  Most scan blocks carry one or two queries, and against a
row-major ``(n, dim + 2)`` buffer such a product runs OpenBLAS's slow
transposed-operand path.  ``block[:, :n]`` of a buffer with spare capacity
is a strided view BLAS reads in place (its leading dimension is the
capacity), so scoring copies nothing.  On the grid no summation order
changes a bit, so the layout moves no score.

The product runs on one OpenBLAS thread.  Exactness no longer needs that,
but OpenBLAS's worker threads spin between products, burning a second core
for nothing while the pipeline itself runs one thread.  The limit comes
from ``openblas_set_num_threads_local`` in the OpenBLAS library numpy has
already loaded, set to 1 around the product and restored in ``finally``.
Where that library or symbol is missing (MKL, Accelerate, older OpenBLAS)
the product runs as numpy runs it.

The setter is thread-local only in OpenMP builds of OpenBLAS.  In the
pthreads build that numpy's wheels bundle (0.3.31 measured) it sets the
process-wide count: while a product is scored, BLAS work on any other
thread of the process also runs on one thread.  So on a pthreads build the
previous count is restored only while the process-wide count still reads
1: a count another thread sets inside that window survives.  OpenMP builds
restore unconditionally.  ``_LIMIT_LOCK`` is held from set to restore, so
two scoring threads never restore each other's count out of order and
leave the process pinned at one thread.

**One formula.**  :func:`cell_scores` is the only place the square root, the
``+ 1``, the decay and the division are written; :func:`score_block` runs
it over a whole block and :func:`scores_at_least` over the cells of a
block that can still reach a floor.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from typing import Callable, Optional, Tuple

import numpy as np


def _process_wide(library: ctypes.CDLL, name: str) -> Optional[Callable[[], int]]:
    """One of OpenBLAS's process-wide ``int (void)`` controls, or None.

    scipy-openblas wheels export them as ``scipy_openblas_<name>64_``, a
    plain OpenBLAS as ``openblas_<name>``.
    """
    for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}"):
        function = getattr(library, symbol, None)
        if function is not None:
            function.argtypes = []
            function.restype = ctypes.c_int
            return function
    return None


def _bind_thread_limit() -> Tuple[
    Optional[str], Optional[Callable[[int], int]], Optional[Callable[[], int]]
]:
    """The bundled OpenBLAS numpy loaded, its thread-limit setter, and —
    on a pthreads build, where that setter acts on the whole process — its
    process-wide count getter.

    Only a library that is already loaded is bound (``RTLD_NOLOAD``), so no
    second OpenBLAS copy is ever brought into the process.
    """
    root = os.path.dirname(np.__file__)
    for pattern in (
        os.path.join(root, os.pardir, "numpy.libs", "*openblas*"),  # Linux, Windows
        os.path.join(root, ".dylibs", "*openblas*"),  # macOS
    ):
        for path in sorted(glob.glob(pattern)):
            try:
                library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:
                continue
            setter = getattr(library, "openblas_set_num_threads_local", None)
            count = None
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = ctypes.c_int
                parallel = _process_wide(library, "get_parallel")
                if parallel is not None and parallel() == 1:  # 1: pthreads
                    count = _process_wide(library, "get_num_threads")
            return os.path.realpath(path), setter, count
    return None, None, None


#: Path of the OpenBLAS numpy loaded (``None`` if none was found), its
#: ``openblas_set_num_threads_local``, which returns the previous count
#: (``None`` if the library lacks it), and the process-wide count getter of
#: a pthreads build (``None`` elsewhere: the restore is then unconditional).
BLAS_LIBRARY, _set_num_threads_local, _process_count = _bind_thread_limit()
_LIMIT_LOCK = threading.Lock()


#: Snapped components are integer multiples of this step.
GRID = 2.0**-20

#: A snapped vector's squared norm must stay below this (``4 |v|^2 2^40 <
#: 2^53``), or partial sums of the product could round.
MAX_SQUARED_NORM = 2.0**11

#: Vectors :func:`snap` rounds per step, in a scratch block that stays in cache.
_SNAP_ROWS = 512


def snap(
    vectors: np.ndarray, out: np.ndarray, rows: Optional[np.ndarray] = None
) -> Optional[int]:
    """Write ``vectors`` onto the grid as ``[x, |x|^2, 1]`` columns of ``out``.

    ``rows`` picks rows of ``vectors`` (all of them when None); ``out`` is
    ``(dim + 2, len(rows))``, typically the columns of a shard's dim-major
    block the rows are about to occupy, so snapping makes no copy of the
    batch.  Each step rounds up to :data:`_SNAP_ROWS` vectors in a
    row-major scratch block that stays in cache and writes it out
    transposed.  Returns the first position in ``out`` whose squared norm is
    not below :data:`MAX_SQUARED_NORM`, NaN and infinite vectors included,
    or None when every vector is in range.
    """
    dim, count = out.shape[0] - 2, out.shape[1]
    scratch = np.empty((min(count, _SNAP_ROWS), dim))
    for start in range(0, count, _SNAP_ROWS):
        block = scratch[: min(_SNAP_ROWS, count - start)]
        stop = start + block.shape[0]
        if rows is None:
            np.multiply(vectors[start:stop], 1.0 / GRID, out=block)
        else:
            np.take(vectors, rows[start:stop], axis=0, out=block, mode="clip")
            block *= 1.0 / GRID
        np.rint(block, out=block)
        block *= GRID
        out[:dim, start:stop] = block.T
        np.vecdot(block, block, out=out[dim, start:stop])
    out[dim + 1] = 1.0
    norms = out[dim]
    if not count or norms.max() < MAX_SQUARED_NORM:  # False on a NaN
        return None
    return int(np.argmin(norms < MAX_SQUARED_NORM))


def rejected(vector: np.ndarray, subject: str) -> ValueError:
    """The error for a vector :func:`snap` refused; ``subject`` names it."""
    if not np.isfinite(vector).all():
        return ValueError(f"non-finite vector {subject}")
    scale = float(np.abs(vector).max())  # a norm that cannot overflow
    return ValueError(
        f"vector norm {scale * float(np.linalg.norm(vector / scale)):.6g} is not below "
        f"the exact-scoring bound {math.sqrt(MAX_SQUARED_NORM):.6g} {subject}"
    )


def augment_queries(queries: np.ndarray) -> np.ndarray:
    """``[-2q, 1, |q|^2]`` per query, ``q`` snapped: :func:`score_block`'s queries.

    One row per query, row-major: built as :func:`snap`'s columns, then
    transposed.  ``ValueError`` naming the first query row it refuses.
    """
    count, dim = queries.shape
    columns = np.empty((dim + 2, count))
    refused = snap(queries, columns)
    if refused is not None:
        raise rejected(queries[refused], f"at query row {refused}")
    columns[:dim] *= -2.0
    columns[dim + 1] = columns[dim]
    columns[dim] = 1.0
    return np.ascontiguousarray(columns.T)


def one_thread_product(queries: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``queries @ block`` computed on the calling thread only.

    ``block`` is ``(dim + 2, n)`` with unit stride along a row, a strided
    view of a wider buffer included: BLAS takes it as it lies.
    """
    setter = _set_num_threads_local
    if setter is None:
        return queries @ block
    with _LIMIT_LOCK:
        previous = setter(1)
        try:
            return queries @ block
        finally:
            if _process_count is None or _process_count() == 1:
                setter(previous)


def cell_scores(squared: np.ndarray, gaps: np.ndarray, alpha: float) -> np.ndarray:
    """``exp(-alpha |gap|) / (1 + sqrt(squared))``, cell by cell: the paper's similarity.

    ``squared`` holds exact squared distances and ``gaps`` each cell's
    stored day minus its query day, broadcastable against ``squared``.  Both
    are overwritten; the scores land in ``squared``'s buffer.  Every step is
    elementwise, so a cell scores the same bits in any shape.
    """
    np.sqrt(squared, out=squared)
    squared += 1.0  # 1 + distance
    np.abs(gaps, out=gaps)
    gaps *= -alpha
    np.exp(gaps, out=gaps)
    return np.divide(gaps, squared, out=squared)


def score_block(
    block: np.ndarray,
    row_days: np.ndarray,
    queries: np.ndarray,
    query_days: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """``(Q, N)`` similarities of ``queries`` against ``N`` stored vectors.

    ``block`` is the vectors' ``(dim + 2, N)`` dim-major block of
    ``[x, |x|^2, 1]`` columns (:func:`snap`), typically ``buffer[:, :N]`` of
    a shard, and ``queries`` come from :func:`augment_queries`, so the one
    product ``queries @ block`` is the exact squared distance of every
    pair.  The decay ``exp(-alpha |day gap|)`` is divided
    into the product's buffer in place, computed once when every query
    shares one day: the same elementwise values as one decay row per
    query, so the same bits.
    """
    scores = one_thread_product(queries, block)
    days = query_days
    if days.shape[0] > 1 and (days == days[0]).all():
        days = days[:1]  # one decay row, broadcast over the batch
    return cell_scores(scores, row_days[None, :] - days[:, None], alpha)


#: Relative slack on :func:`scores_at_least`'s distance limit, for rounding.
LIMIT_MARGIN = 1e-9


def scores_at_least(
    squared: np.ndarray,
    row_days: np.ndarray,
    query_days: np.ndarray,
    alpha: float,
    bounds: np.ndarray,
    floors: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The cells of a block that score at least their row's floor, and their scores.

    ``squared`` is a ``(Q, N)`` product of :func:`one_thread_product`,
    ``row_days`` the ``N`` stored days; ``query_days``, ``bounds`` and
    ``floors`` hold one value per row.  ``bounds[i]`` is at least the decay
    of every cell of row ``i``, and ``floors[i]`` is a normal positive
    float.  Returns the flat indices of the cells scoring at least their
    row's floor, ascending, and those scores, the bits :func:`score_block`
    gives them.  A cell set to ``+inf`` scores 0, so it is never returned.

    Only the cells with ``squared <= limit``, where ``limit = ((bound / floor
    - 1) (1 + m))^2`` and ``m`` is :data:`LIMIT_MARGIN`, are scored.  The
    others all score below the floor:

    Let ``u = 2^-53``, ``g = bound / floor`` and ``h = g - 1`` (reals), and
    take a cell of decay ``D <= bound`` at distance ``d = sqrt(squared)``,
    with ``r = fl(d)``, ``v = fl(1 + r)`` and score ``s = fl(D / v) >=
    floor``.  Each of those operations is correctly rounded, so ``D / v >=
    floor (1 - u)`` (a subnormal quotient included: then ``s = floor =
    2^-1022``), ``1 + r <= v / (1 - u)`` and ``d <= r / (1 - u)``; hence
    ``d <= g / (1 - u)^3 - 1 / (1 - u) <= h + 3.0001 u g``.  The limit's
    four roundings (``fl(g)``, ``- 1``, ``* fl(1 + m)``, the square) cost
    ``sqrt(limit)`` at most a factor ``(1 - u)^(5/2)`` while ``fl(g) >= 1``,
    and ``fl(1 + m) >= 1 + m - 2.3e-16``, so once ``h >= 5e-7`` (then
    ``fl(g) > 1``) ``sqrt(limit) >= (h - u g)(1 + m')`` with ``m' >=
    0.99999e-9``.  That is at least ``h + 3.0001 u g`` when ``m' h >= 4.0002
    u g``, i.e. whenever ``h >= 4.45e-7``.  Below ``h = 5e-7``, ``d < 5e-7
    + 4e-16 < 2^-20``: on the grid a squared
    distance is a whole multiple of ``2^-40``, so ``squared = 0``, and the
    limit is a rounded square, never below 0.  An overflowing limit is
    ``inf`` and keeps every cell.  So the skip drops no cell at or above the
    floor, exactly: it needs only the grid and that ``D <= bound``, which
    holds because the scan's bound comes from the same ``np.exp`` of a day
    gap no wider than the cell's (the pruning's premise).
    """
    limits = bounds / floors
    limits -= 1.0
    limits *= 1.0 + LIMIT_MARGIN
    limits *= limits
    cells = np.flatnonzero(squared <= limits[:, None])
    owner, rows = np.divmod(cells, squared.shape[1])
    scores = cell_scores(squared.ravel()[cells], row_days[rows] - query_days[owner], alpha)
    kept = scores >= floors[owner]
    return cells[kept], scores[kept]
