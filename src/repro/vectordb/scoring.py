"""The one scoring kernel both retrieval backends call (Section 4.2.2).

``score_block`` turns a block of query embeddings into the paper's
similarities against a block of stored rows, so the flat and the sharded
index produce the same bits by construction.

Its matrix product runs on one OpenBLAS thread.  With more than one
OpenBLAS thread the product's bits depend on how many threads split it
(``Q @ M.T`` at dim 64 differs between 1 and 2 threads at many block
shapes), and OpenBLAS's worker threads spin between products, burning a
second core for nothing while the pipeline itself runs one thread.  The
limit comes from ``openblas_set_num_threads_local`` in the OpenBLAS library
numpy has already loaded, set to 1 around the product and restored in
``finally``.  Where that library or symbol is missing (MKL, Accelerate,
older OpenBLAS) the product runs as numpy runs it.

The setter is thread-local only in OpenMP builds of OpenBLAS.  In the
pthreads build that numpy's wheels bundle (0.3.31 measured) it sets the
process-wide count: while a product is scored, BLAS work on any other
thread of the process also runs on one thread.  So on a pthreads build the
previous count is restored only while the process-wide count still reads
1: a count another thread sets inside that window survives.  OpenMP builds
restore unconditionally.  ``_LIMIT_LOCK`` is held from set to restore, so
two scoring threads never restore each other's count out of order and
leave the process pinned at one thread.
"""

from __future__ import annotations

import ctypes
import glob
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


def one_thread_product(queries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``queries @ matrix.T`` computed on the calling thread only."""
    setter = _set_num_threads_local
    if setter is None:
        return queries @ matrix.T
    with _LIMIT_LOCK:
        previous = setter(1)
        try:
            return queries @ matrix.T
        finally:
            if _process_count is None or _process_count() == 1:
                setter(previous)


def score_block(
    matrix: np.ndarray,
    sq_norms: np.ndarray,
    row_days: np.ndarray,
    queries: np.ndarray,
    query_days: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """``(Q, N)`` similarities of ``queries`` against ``matrix``'s rows.

    Squared distances come from the Gram expansion ``|q|^2 + |m|^2 - 2 q.m``
    in the product's own buffer.  The decay ``exp(-alpha |day gap|)`` is
    divided into that buffer in place, computed once when every query
    shares one day: the same elementwise values as one decay row per
    query, so the same bits.
    """
    scores = one_thread_product(queries, matrix)
    scores *= -2.0
    scores += np.einsum("ij,ij->i", queries, queries)[:, None]
    scores += sq_norms[None, :]
    np.maximum(scores, 0.0, out=scores)  # guard fp cancellation
    np.sqrt(scores, out=scores)
    scores += 1.0  # 1 + distance
    days = query_days
    if days.shape[0] > 1 and (days == days[0]).all():
        days = days[:1]  # one decay row, broadcast over the batch
    decay = row_days[None, :] - days[:, None]
    np.abs(decay, out=decay)
    decay *= -alpha
    np.exp(decay, out=decay)
    return np.divide(decay, scores, out=scores)
