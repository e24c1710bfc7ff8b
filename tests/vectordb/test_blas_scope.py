"""The scoring product's one-thread OpenBLAS scope (``vectordb.scoring``).

``one_thread_product`` sets OpenBLAS's thread count to 1 around
``queries @ block`` (``block`` dim-major, ``(dim + 2, rows)`` in retrieval)
and restores it in ``finally``.  Retrieval's inputs
are snapped to a grid on which the product is exact whatever the thread
count (``test_score_kernel.py``), so for scoring the binding now only saves
the CPU that OpenBLAS's spinning workers would burn.  These tests pin the
binding itself, on unsnapped arrays passed straight to
``one_thread_product``: its product no longer depends on how many threads
OpenBLAS was started with, the count is restored after every product (also
one that raises), a missing binding degrades to numpy's plain product, and
a worker thread computes the same bits as the main thread.  Two
tests pin what a pthreads OpenBLAS, where the setter acts on the whole
process, costs a host thread: it sees one thread while a product is
scored, and a count it sets in that window survives the restore.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.vectordb import scoring

SRC = Path(__file__).resolve().parents[2] / "src"
SETTER = scoring._set_num_threads_local

needs_binding = pytest.mark.skipif(
    SETTER is None,
    reason="numpy's BLAS exports no openblas_set_num_threads_local "
    "(not a bundled OpenBLAS, or an older one); the product runs unscoped",
)

# Blocks at dim 64 whose plain product of unsnapped arrays differed in bits
# between one and two OpenBLAS threads on one build; which shapes differ
# depends on the build and the core count, so the test checks the unscoped
# products as well.
SHAPES = [(16, 5003), (16, 6000), (16, 7772), (32, 3850), (1, 7772)]
BLOCK_SCRIPT = f"""
import hashlib
import numpy as np
from repro.vectordb.scoring import one_thread_product
digest = lambda array: hashlib.sha256(array.tobytes()).hexdigest()
for queries, rows in {SHAPES!r}:
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((64, rows))
    block = rng.standard_normal((queries, 64))
    print(digest(block @ matrix), digest(one_thread_product(block, matrix)))
"""


def block(queries=16, rows=6000, dim=64, seed=3):
    """Queries and a dim-major ``(dim, rows)`` block, as retrieval lays them out."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((queries, dim)), rng.standard_normal((dim, rows))


def current_count() -> int:
    """OpenBLAS's thread count in effect, read by swapping it out and back."""
    value = SETTER(1)
    SETTER(value)
    return value


@needs_binding
def test_the_product_does_not_depend_on_the_openblas_thread_count():
    lines = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", BLOCK_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        lines[threads] = [line.split() for line in run.stdout.splitlines()]
    plain_differs = [
        one[0] != two[0] for one, two in zip(lines["1"], lines["2"], strict=True)
    ]
    if not any(plain_differs):
        pytest.skip(
            "the unscoped product has the same bits under one and two OpenBLAS "
            f"threads at every block shape {SHAPES}, so the scope cannot show here"
        )
    assert [product for _, product in lines["1"]] == [product for _, product in lines["2"]]


@needs_binding
def test_count_is_one_during_the_product_and_restored_after(monkeypatch):
    calls, seen = [], []

    def recording(count):
        calls.append(count)
        return SETTER(count)

    class Probe(np.ndarray):
        def __matmul__(self, other):
            seen.append(current_count())
            return np.asarray(self) @ other

    before = current_count()
    queries, matrix = block(queries=4, rows=300)
    monkeypatch.setattr(scoring, "_set_num_threads_local", recording)
    product = scoring.one_thread_product(queries.view(Probe), matrix)
    assert seen == [1]
    assert calls == [1, before]
    monkeypatch.undo()
    assert current_count() == before
    assert product.tobytes() == scoring.one_thread_product(queries, matrix).tobytes()


@needs_binding
def test_count_is_restored_when_the_product_raises(monkeypatch):
    calls = []

    def recording(count):
        calls.append(count)
        return SETTER(count)

    before = current_count()
    queries, matrix = block(queries=4, rows=300)
    monkeypatch.setattr(scoring, "_set_num_threads_local", recording)
    with pytest.raises(ValueError):
        scoring.one_thread_product(queries[:, :5], matrix)
    assert calls == [1, before]
    monkeypatch.undo()
    assert current_count() == before
    assert not scoring._LIMIT_LOCK.locked()


def test_without_a_binding_the_product_is_numpys(monkeypatch):
    monkeypatch.setattr(scoring, "_set_num_threads_local", None)
    queries, matrix = block()
    assert scoring.one_thread_product(queries, matrix).tobytes() == (
        queries @ matrix
    ).tobytes()


def test_a_worker_thread_computes_the_main_threads_bits():
    queries, matrix = block()
    main = scoring.one_thread_product(queries, matrix)
    found = []
    worker = threading.Thread(
        target=lambda: found.append(scoring.one_thread_product(queries, matrix))
    )
    worker.start()
    worker.join()
    assert found[0].tobytes() == main.tobytes()


def process_wide_controls():
    """OpenBLAS's process-wide count setter and getter, and its threading model.

    scipy-openblas wheels export them under a ``scipy_`` prefix and ``64_``
    suffix; a plain OpenBLAS under the bare names.
    """
    library = ctypes.CDLL(scoring.BLAS_LIBRARY, mode=getattr(os, "RTLD_NOLOAD", 0))
    found = []
    for name in ("set_num_threads", "get_num_threads", "get_parallel"):
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}"):
            function = getattr(library, symbol, None)
            if function is not None:
                found.append(function)
                break
        else:
            pytest.skip(f"the OpenBLAS numpy loaded exports no openblas_{name}")
    set_count, get_count, get_parallel = found
    set_count.argtypes, set_count.restype = [ctypes.c_int], None
    get_count.restype = get_parallel.restype = ctypes.c_int
    return set_count, get_count, get_parallel()


def host_sets_the_count_inside_the_window(set_count, get_count, host_count):
    """Score one product while another thread reads and sets the count.

    Returns what that thread read and the count after the product.
    """
    inside = []

    def host_thread():
        inside.append(get_count())
        set_count(host_count)

    class Probe(np.ndarray):
        def __matmul__(self, other):
            thread = threading.Thread(target=host_thread)
            thread.start()
            thread.join()
            return np.asarray(self) @ other

    queries, matrix = block(queries=4, rows=300)
    scoring.one_thread_product(queries.view(Probe), matrix)
    return inside, get_count()


@needs_binding
def test_pthreads_setter_acts_on_the_whole_process():
    """In a pthreads build ``openblas_set_num_threads_local`` sets the
    process-wide count: another thread sees one thread while a product is
    scored.  A count it sets in that window is kept — the restore only
    runs while the count still reads 1.
    """
    set_count, get_count, parallel = process_wide_controls()
    if parallel != 1:
        pytest.skip("not a pthreads OpenBLAS: the setter is thread-local there")
    assert scoring._process_count is not None
    before = get_count()
    host_count = before + 1
    try:
        inside, after = host_sets_the_count_inside_the_window(set_count, get_count, host_count)
    finally:
        set_count(before)
    assert inside == [1]
    assert after == host_count


@needs_binding
def test_without_a_process_count_the_restore_is_unconditional(monkeypatch):
    """The OpenMP-build branch: there the setter is thread-local, so the
    previous count is restored whatever the process-wide count reads.  Run
    on a pthreads build, where that restore shows in the process-wide count.
    """
    set_count, get_count, parallel = process_wide_controls()
    if parallel != 1:
        pytest.skip("not a pthreads OpenBLAS: the restore acts on the calling thread only")
    monkeypatch.setattr(scoring, "_process_count", None)
    before = get_count()
    try:
        _, after = host_sets_the_count_inside_the_window(set_count, get_count, before + 1)
    finally:
        set_count(before)
    assert after == before
