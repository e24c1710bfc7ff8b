"""Triage throughput: sequential diagnose loop vs the end-to-end batch path.

The deployment the paper describes (Table 4, Section 5) is an always-on
service ingesting a continuous alert stream in which most incidents recur
(Figure 2).  This benchmark replays such a recurring stream against
histories of 1k / 10k / 50k indexed incidents and compares

* the **sequential** path: ``[copilot.diagnose(incident) for incident in batch]``
* the **batch** path: ``copilot.diagnose_many(batch)``

measured in incidents/sec.  Both paths share the same code (``diagnose``
delegates to a single-element batch), so the difference isolates what
batching buys: one matrix–matrix retrieval pass, batched embedding through
the content cache, and in-batch LLM deduplication.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_throughput_batch.py -q -s``.
"""

from __future__ import annotations

import copy
import os
import platform
import time
from dataclasses import replace
from typing import List

import numpy as np
import pytest

from bench_utils import read_results, write_results

from repro.core import AutoscalePolicy, IngestConfig, RCACopilot
from repro.datagen import generate_corpus
from repro.handlers import (
    HandlerRegistry,
    QueryAction,
    linear_handler,
    register_classifier,
)
from repro.incidents import Incident
from repro.llm import SimulatedLLM
from repro.monitors import Alert, AlertScope
from repro.telemetry import TelemetryHub

HISTORY_SIZES = (1_000, 10_000, 50_000)
#: ``--quick`` (CI smoke) drops the 50k size; the asserted 10k stays.
QUICK_HISTORY_SIZES = (1_000, 10_000)
#: Distinct incidents in one replay batch, and how often each recurs.
DISTINCT_INCIDENTS = 30
RECURRENCES = 4


def _build_copilot(history_size: int) -> RCACopilot:
    """An indexed copilot whose vector index is padded to ``history_size``.

    The real corpus trains the embedder and provides realistic query
    incidents; synthetic rows then pad the index so retrieval scans the
    target history size.  Collection uses an empty handler registry: the
    benchmark isolates the triage (prediction) path, which is the part that
    scales with history size.
    """
    corpus = generate_corpus(
        total_incidents=160, total_categories=45, seed=71, duration_days=180.0
    )
    train, _ = corpus.chronological_split(0.75)
    copilot = RCACopilot(
        TelemetryHub(), registry=HandlerRegistry(), model=SimulatedLLM()
    )
    copilot.index_history(train)
    store = copilot.prediction.index
    padding = history_size - len(store)
    if padding > 0:
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((padding, store.dim))
        vectors *= 6.0 / np.linalg.norm(vectors, axis=1, keepdims=True)
        store.add_many(
            incident_ids=[f"INC-PAD-{i:06d}" for i in range(padding)],
            vectors=vectors,
            created_days=rng.uniform(0.0, 180.0, size=padding),
            categories=[f"PadCategory{i % 120}" for i in range(padding)],
            texts=[f"padding incident {i} with synthetic diagnostic text" for i in range(padding)],
        )
    return copilot


def _recurring_batch(seed: int) -> List[Incident]:
    """A replay batch in which every incident recurs ``RECURRENCES`` times."""
    corpus = generate_corpus(
        total_incidents=160, total_categories=45, seed=71, duration_days=180.0
    )
    _, test = corpus.chronological_split(0.75)
    bases = test.all()[:DISTINCT_INCIDENTS]
    batch: List[Incident] = []
    for occurrence in range(RECURRENCES):
        for index, base in enumerate(bases):
            batch.append(
                replace(
                    base,
                    incident_id=f"INC-LIVE-{seed}-{occurrence:02d}-{index:03d}",
                    summary="",
                    predicted_category=None,
                    explanation="",
                )
            )
    return batch


def _throughput(history_size: int) -> tuple:
    """(sequential ips, batch ips) for one history size."""
    copilot = _build_copilot(history_size)
    sequential_copilot = copy.deepcopy(copilot)
    batch_copilot = copy.deepcopy(copilot)

    sequential_batch = _recurring_batch(seed=1)
    batch_batch = copy.deepcopy(sequential_batch)

    # Untimed warm-up on each copilot: touches the index matrix once so
    # neither measured path pays one-off page-fault/cache-fill costs.
    warmup = _recurring_batch(seed=2)[:1]
    sequential_copilot.diagnose(copy.deepcopy(warmup[0]))
    batch_copilot.diagnose(copy.deepcopy(warmup[0]))

    started = time.perf_counter()
    sequential_reports = [sequential_copilot.diagnose(i) for i in sequential_batch]
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batch_reports = batch_copilot.diagnose_many(batch_batch)
    batch_seconds = time.perf_counter() - started

    assert len(sequential_reports) == len(batch_reports) == len(sequential_batch)
    # Same labels out of both paths — the parity the refactor guarantees.
    assert [r.predicted_label for r in sequential_reports] == [
        r.predicted_label for r in batch_reports
    ]
    count = len(sequential_batch)
    return count / sequential_seconds, count / batch_seconds


def test_throughput_single_vs_batch(quick_mode):
    """Batched diagnosis is >= 3x the sequential loop at a 10k history."""
    history_sizes = QUICK_HISTORY_SIZES if quick_mode else HISTORY_SIZES
    print()
    print(f"{'history':>10} {'seq inc/s':>12} {'batch inc/s':>12} {'speedup':>9}")
    speedups = {}
    rows = {}
    for history_size in history_sizes:
        sequential_ips, batch_ips = _throughput(history_size)
        speedups[history_size] = batch_ips / sequential_ips
        rows[str(history_size)] = {
            "sequential_incidents_per_second": sequential_ips,
            "batch_incidents_per_second": batch_ips,
            "speedup": speedups[history_size],
        }
        print(
            f"{history_size:>10} {sequential_ips:>12.1f} {batch_ips:>12.1f} "
            f"{speedups[history_size]:>8.1f}x"
        )
    # Merge-don't-clobber: the collect-bound profile shares this artifact.
    merged = read_results("BENCH_throughput.json")
    merged["benchmark"] = "throughput_batch"
    merged["config"] = {
        "history_sizes": list(history_sizes),
        "distinct_incidents": DISTINCT_INCIDENTS,
        "recurrences": RECURRENCES,
        "quick_mode": bool(quick_mode),
        "cores": os.cpu_count() or 1,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    merged["results"] = rows
    path = write_results("BENCH_throughput.json", merged)
    print(f"machine-readable results: {path}")
    assert speedups[10_000] >= 3.0, (
        f"batch path must be >= 3x the sequential loop at 10k history, "
        f"got {speedups[10_000]:.2f}x"
    )
    # Batching should never make throughput worse.  At 50k the measurement
    # is dominated by memory bandwidth and allocator behaviour, so only the
    # smaller sizes are asserted strictly; 50k must merely not regress badly.
    for history_size, speedup in speedups.items():
        floor = 1.0 if history_size <= 10_000 else 0.8
        assert speedup >= floor, f"batching slower at {history_size}: {speedup:.2f}x"


# --------------------------------------------------------------- collect-bound
#: Simulated I/O latency of one handler telemetry pull, and the ingest
#: stream replayed through the worker pool (``--collect-bound`` doubles it).
COLLECT_SLEEP_SECONDS = 0.025
COLLECT_ALERTS = 32
COLLECT_SOAK_ALERTS = 96
COLLECT_WORKERS = 4


@register_classifier("bench_collect_sleep")
def _bench_sleep_classifier(context, table) -> str:
    """Sleep-simulate the I/O wait of a real log pull / probe query."""
    time.sleep(COLLECT_SLEEP_SECONDS)
    return "default"


def _collect_bound_copilot() -> RCACopilot:
    """An indexed copilot whose single handler is collect- (I/O-) bound."""
    registry = HandlerRegistry()
    registry.register(
        linear_handler(
            "CollectBound",
            "collect-bound",
            [
                QueryAction(
                    "slow_probe",
                    source="metrics",
                    metric_names=["delivery_queue_length"],
                    classify=_bench_sleep_classifier,
                ),
                QueryAction("recent_events", source="events"),
            ],
        )
    )
    corpus = generate_corpus(
        total_incidents=160, total_categories=45, seed=71, duration_days=180.0
    )
    train, _ = corpus.chronological_split(0.75)
    copilot = RCACopilot(TelemetryHub(), registry=registry, model=SimulatedLLM())
    copilot.index_history(train)
    return copilot


def _collect_bound_alerts(count: int):
    return [
        Alert(
            alert_id=f"AL-CB-{index:05d}",
            alert_type="CollectBound",
            scope=AlertScope.FOREST,
            timestamp=3600.0 + 7.0 * index,
            machine="",
            forest="forest-01",
            message=f"collect-bound benchmark alert {index}",
            severity=3,
        )
        for index in range(count)
    ]


def _ingest_throughput(copilot: RCACopilot, alerts, workers) -> tuple:
    """(incidents/sec, predicted labels) for one ingest configuration."""
    ingestor = copilot.stream(
        IngestConfig(
            max_batch=16, max_latency_seconds=5.0, collect_workers=workers
        )
    )
    ingestor.submit_many(alerts)
    started = time.perf_counter()
    reports = ingestor.flush()
    seconds = time.perf_counter() - started
    ingestor.stop()
    assert len(reports) == len(alerts)
    return len(alerts) / seconds, [r.predicted_label for r in reports]


def test_collect_bound_ingest_worker_pool(collect_bound_soak):
    """4 collect workers give >= 2x ingest throughput on a collect-bound stream.

    Handlers sleep-simulate telemetry I/O (the latency profile the paper's
    collection stage actually has), so the wall-clock win comes from
    overlapping waits — it shows up even on a single-core runner.  The
    pooled run must also reproduce the serial run's labels exactly: the
    parity the two-phase fold guarantees.
    """
    count = COLLECT_SOAK_ALERTS if collect_bound_soak else COLLECT_ALERTS
    copilot = _collect_bound_copilot()
    serial_copilot = copy.deepcopy(copilot)
    pooled_copilot = copy.deepcopy(copilot)
    # Untimed warm-up so neither path pays first-touch costs.
    serial_copilot.observe(_collect_bound_alerts(1)[0])
    pooled_copilot.observe(_collect_bound_alerts(1)[0])

    serial_ips, serial_labels = _ingest_throughput(
        serial_copilot, _collect_bound_alerts(count), None
    )
    pooled_ips, pooled_labels = _ingest_throughput(
        pooled_copilot, _collect_bound_alerts(count), COLLECT_WORKERS
    )
    assert pooled_labels == serial_labels
    speedup = pooled_ips / serial_ips
    print()
    print(
        f"collect-bound ingest ({count} alerts, {COLLECT_SLEEP_SECONDS * 1000:.0f}ms "
        f"simulated I/O per handler): serial {serial_ips:.1f} inc/s, "
        f"{COLLECT_WORKERS} workers {pooled_ips:.1f} inc/s ({speedup:.1f}x)"
    )
    merged = read_results("BENCH_throughput.json")
    merged.setdefault("benchmark", "throughput_batch")
    merged["collect_bound"] = {
        "alerts": count,
        "collect_workers": COLLECT_WORKERS,
        "sleep_seconds": COLLECT_SLEEP_SECONDS,
        "soak": bool(collect_bound_soak),
        "cores": os.cpu_count() or 1,
        "serial_incidents_per_second": serial_ips,
        "pooled_incidents_per_second": pooled_ips,
        "speedup": speedup,
    }
    path = write_results("BENCH_throughput.json", merged)
    print(f"machine-readable results: {path}")
    assert speedup >= 2.0, (
        f"4 collect workers must give >= 2x ingest throughput on a "
        f"collect-bound stream, got {speedup:.2f}x"
    )


# ---------------------------------------------------------------- pipelined
#: Balanced two-stage profile: 25ms simulated I/O per collect (pooled over
#: 2 workers: ~100ms per 8-alert wave) against an LLM-bound prediction
#: phase of comparable wall time, so each stage can hide most of the other
#: and the double-buffered pipeline's overlap is what the wall clock
#: measures.  ``--pipeline`` doubles the stream length.
PIPELINE_ALERTS = 48
PIPELINE_SOAK_ALERTS = 96
PIPELINE_MAX_BATCH = 8
PIPELINE_WORKERS = 2
PIPELINE_DEPTH = 2
PREDICT_SLEEP_SECONDS = 0.006


class _SlowModel:
    """A :class:`SimulatedLLM` with fixed per-completion latency.

    The sleep stands in for a remote LLM endpoint's response time; it
    releases the GIL, so a prediction phase built on this model genuinely
    overlaps with collection sleeps on other threads.  Deterministic
    (``noise = 0``), so the pipelined run must reproduce the barrier run's
    labels exactly.  No ``complete_many``: the predictor's sequential
    fallback charges the latency once per distinct completion.
    """

    def __init__(self, seconds: float) -> None:
        self._inner = SimulatedLLM()
        self.name = self._inner.name
        self.noise = 0.0
        self.seconds = seconds

    def complete(self, messages, temperature: float = 0.0):
        time.sleep(self.seconds)
        return self._inner.complete(messages, temperature=temperature)


def _pipeline_copilot() -> RCACopilot:
    """An indexed copilot with a 25ms collect handler and a slow LLM."""
    registry = HandlerRegistry()
    registry.register(
        linear_handler(
            "CollectBound",
            "collect-bound",
            [
                QueryAction(
                    "slow_probe",
                    source="metrics",
                    metric_names=["delivery_queue_length"],
                    classify=_bench_sleep_classifier,
                ),
                QueryAction("recent_events", source="events"),
            ],
        )
    )
    corpus = generate_corpus(
        total_incidents=160, total_categories=45, seed=71, duration_days=180.0
    )
    train, _ = corpus.chronological_split(0.75)
    copilot = RCACopilot(
        TelemetryHub(), registry=registry, model=_SlowModel(PREDICT_SLEEP_SECONDS)
    )
    copilot.index_history(train)
    return copilot


def _pipeline_ingest(copilot: RCACopilot, alerts, depth) -> tuple:
    """(wall seconds, labels, overlap seconds) for one pipeline shape."""
    ingestor = copilot.stream(
        IngestConfig(
            max_batch=PIPELINE_MAX_BATCH,
            max_latency_seconds=5.0,
            collect_workers=PIPELINE_WORKERS,
            pipeline_depth=depth,
        )
    )
    ingestor.submit_many(alerts)
    started = time.perf_counter()
    reports = ingestor.flush()
    seconds = time.perf_counter() - started
    ingestor.stop()
    assert len(reports) == len(alerts)
    overlap = ingestor.stats_dict()["pipeline_overlap_seconds"]
    return seconds, [r.predicted_label for r in reports], overlap


def test_pipelined_ingest_vs_barrier(pipeline_soak):
    """Double-buffered ingest is >= 1.3x barrier wall clock on a balanced stream.

    The barrier run pays collect + predict per wave; the pipelined run
    hides each wave's collection behind the previous wave's LLM-bound
    prediction, so the wall clock approaches max(collect, predict) per wave
    instead of their sum.  Labels must match the barrier run exactly — the
    parity the pipeline contract guarantees.
    """
    count = PIPELINE_SOAK_ALERTS if pipeline_soak else PIPELINE_ALERTS
    copilot = _pipeline_copilot()
    barrier_copilot = copy.deepcopy(copilot)
    pipelined_copilot = copy.deepcopy(copilot)
    # Untimed warm-up so neither path pays first-touch costs.
    barrier_copilot.observe(_collect_bound_alerts(1)[0])
    pipelined_copilot.observe(_collect_bound_alerts(1)[0])

    barrier_seconds, barrier_labels, _ = _pipeline_ingest(
        barrier_copilot, _collect_bound_alerts(count), 1
    )
    pipelined_seconds, pipelined_labels, overlap = _pipeline_ingest(
        pipelined_copilot, _collect_bound_alerts(count), PIPELINE_DEPTH
    )
    assert pipelined_labels == barrier_labels
    speedup = barrier_seconds / pipelined_seconds
    print()
    print(
        f"pipelined ingest ({count} alerts, {COLLECT_SLEEP_SECONDS * 1000:.0f}ms "
        f"collect, {PREDICT_SLEEP_SECONDS * 1000:.0f}ms per completion): "
        f"barrier {barrier_seconds:.2f}s, pipelined {pipelined_seconds:.2f}s "
        f"({speedup:.2f}x, {overlap:.2f}s overlapped)"
    )
    merged = read_results("BENCH_throughput.json")
    merged.setdefault("benchmark", "throughput_batch")
    merged["pipeline"] = {
        "alerts": count,
        "collect_workers": PIPELINE_WORKERS,
        "pipeline_depth": PIPELINE_DEPTH,
        "collect_sleep_seconds": COLLECT_SLEEP_SECONDS,
        "predict_sleep_seconds": PREDICT_SLEEP_SECONDS,
        "soak": bool(pipeline_soak),
        "cores": os.cpu_count() or 1,
        "barrier_seconds": barrier_seconds,
        "pipelined_seconds": pipelined_seconds,
        "overlap_seconds": overlap,
        "speedup": speedup,
    }
    path = write_results("BENCH_throughput.json", merged)
    print(f"machine-readable results: {path}")
    assert speedup >= 1.3, (
        f"the double-buffered pipeline must be >= 1.3x barrier wall clock "
        f"on a balanced collect/predict stream, got {speedup:.2f}x"
    )


# ------------------------------------------------------------ bursty arrival
#: Bursty-arrival profile: alternating collect-bound bursts and idle
#: trickles.  The autoscaled pool must stay within 1.2x of the best static
#: size on wall time while paying fewer worker-seconds over the idle
#: phases (a static pool keeps all its lanes through the quiet stretches).
BURST_ALERTS = 24
BURST_COUNT = 6
QUICK_BURST_COUNT = 3
IDLE_ALERTS = 5
BURSTY_MAX_BATCH = 8
STATIC_POOL_SIZES = (1, 2, 4)
AUTOSCALE_MAX = 4


def _bursty_config(workers, autoscaled: bool) -> IngestConfig:
    policy = None
    if autoscaled:
        # Responsive profile for second-scale bursts: a single batch of
        # evidence moves the pool, a deep backlog jumps it straight to the
        # ceiling before the batch runs (so a burst arriving at a shrunken
        # pool never pays a slow first batch).
        policy = AutoscalePolicy(
            high_utilization=0.8,
            low_utilization=0.3,
            ewma_alpha=1.0,
            hysteresis_batches=1,
            shrink_step=2,
            cooldown_seconds=0.0,
            burst_queue_factor=1.5,
        )
    return IngestConfig(
        max_batch=BURSTY_MAX_BATCH,
        max_latency_seconds=5.0,
        collect_workers=workers,
        collect_workers_min=1,
        collect_workers_max=AUTOSCALE_MAX,
        autoscale=policy,
    )


def _bursty_stream(copilot: RCACopilot, config: IngestConfig, bursts: int) -> tuple:
    """(wall seconds, worker-seconds, labels) for one pool configuration."""
    ingestor = copilot.stream(config)
    labels = []
    index = 0
    started = time.perf_counter()
    for _ in range(bursts):
        burst = _collect_bound_alerts(BURST_ALERTS + IDLE_ALERTS + index)[index:]
        ingestor.submit_many(burst[:BURST_ALERTS])
        labels.extend(r.predicted_label for r in ingestor.flush())
        # Idle trickle: one sparse alert per flush, so every batch boundary
        # sees an (almost) empty queue and a mostly-idle pool.
        for alert in burst[BURST_ALERTS:]:
            ingestor.submit(alert)
            labels.extend(r.predicted_label for r in ingestor.flush())
        index += BURST_ALERTS + IDLE_ALERTS
    wall = time.perf_counter() - started
    ingestor.stop()
    worker_seconds = copilot.hub.metrics.latest(
        "rcacopilot.ingest.collect_worker_seconds_total", "stream-ingestor"
    )
    return wall, worker_seconds, labels


def test_bursty_arrival_autoscaled_pool(quick_mode):
    """Autoscaling rides bursts at static-pool speed but sheds idle capacity.

    Static pools of 1/2/4 workers and the autoscaled (1..4) pool replay the
    same bursty stream.  Gates: identical labels everywhere, autoscaled
    wall time within 1.2x of the best static size, and strictly fewer
    worker-seconds than that best static pool (the savings come from the
    idle phases, where the autoscaler shrinks).
    """
    bursts = QUICK_BURST_COUNT if quick_mode else BURST_COUNT
    base = _collect_bound_copilot()
    base.observe(_collect_bound_alerts(1)[0])  # untimed warm-up

    results = {}
    for workers in STATIC_POOL_SIZES:
        copilot = copy.deepcopy(base)
        results[f"static_{workers}"] = _bursty_stream(
            copilot, _bursty_config(workers, autoscaled=False), bursts
        )
    auto_copilot = copy.deepcopy(base)
    auto_wall, auto_ws, auto_labels = _bursty_stream(
        auto_copilot, _bursty_config(None, autoscaled=True), bursts
    )

    print()
    print(f"{'pool':>12} {'wall s':>8} {'worker-s':>9}")
    for name, (wall, worker_seconds, _) in results.items():
        print(f"{name:>12} {wall:>8.2f} {worker_seconds:>9.2f}")
    print(f"{'autoscaled':>12} {auto_wall:>8.2f} {auto_ws:>9.2f}")

    best_name = min(results, key=lambda name: results[name][0])
    best_wall, best_ws, best_labels = results[best_name]
    # Parity: the autoscaled stream produces the exact labels of every
    # static pool (the batch-boundary resize guarantee).
    for _, _, labels in results.values():
        assert labels == auto_labels
    wall_ratio = auto_wall / best_wall
    print(
        f"best static: {best_name} ({best_wall:.2f}s); autoscaled "
        f"{wall_ratio:.2f}x wall, {auto_ws / best_ws:.2f}x worker-seconds"
    )
    merged = read_results("BENCH_throughput.json")
    merged.setdefault("benchmark", "throughput_batch")
    merged["bursty_autoscale"] = {
        "bursts": bursts,
        "burst_alerts": BURST_ALERTS,
        "idle_alerts": IDLE_ALERTS,
        "sleep_seconds": COLLECT_SLEEP_SECONDS,
        "cores": os.cpu_count() or 1,
        "quick_mode": bool(quick_mode),
        "static": {
            name: {"wall_seconds": wall, "worker_seconds": worker_seconds}
            for name, (wall, worker_seconds, _) in results.items()
        },
        "autoscaled": {
            "wall_seconds": auto_wall,
            "worker_seconds": auto_ws,
            "wall_ratio_vs_best_static": wall_ratio,
            "worker_seconds_ratio_vs_best_static": auto_ws / best_ws,
        },
    }
    path = write_results("BENCH_throughput.json", merged)
    print(f"machine-readable results: {path}")
    assert wall_ratio <= 1.2, (
        f"autoscaled pool must stay within 1.2x of the best static size "
        f"({best_name}), got {wall_ratio:.2f}x"
    )
    assert auto_ws < best_ws, (
        f"autoscaled pool must spend fewer worker-seconds than {best_name} "
        f"({auto_ws:.2f} vs {best_ws:.2f})"
    )


# -------------------------------------------------------------------- replay
#: Recorded-traffic replay profile (``--replay``): the checked-in
#: flash-crowd corpus replayed faster than real time on the real clock
#: (pool parallelism is real thread overlap, which a virtual clock cannot
#: model), A/Bing the autoscaled collection pool against static sizes.
#: Every handler sleep-simulates telemetry I/O, so the burst phase is
#: collect-bound and pool size is what the wall clock measures.
REPLAY_CORPUS = "flash_crowd"
REPLAY_SPEED = 2000.0
REPLAY_SLEEP_SECONDS = 0.02
REPLAY_MAX_BATCH = 8
REPLAY_STATIC_POOLS = (1, 2, 4)


def _replay_registry() -> HandlerRegistry:
    """One collect-bound (sleeping) handler per Table-1 alert type."""
    from repro.cloudsim.scenarios import TABLE1_SCENARIOS

    registry = HandlerRegistry()
    for scenario in TABLE1_SCENARIOS:
        registry.register(
            linear_handler(
                scenario.alert_type,
                f"replay-{scenario.alert_type.lower()}",
                [
                    QueryAction(
                        "slow_probe",
                        source="metrics",
                        metric_names=["delivery_queue_length"],
                        classify=_bench_sleep_classifier,
                    ),
                    QueryAction("recent_events", source="events"),
                ],
            )
        )
    return registry


def _replay_copilot() -> RCACopilot:
    corpus = generate_corpus(
        total_incidents=160, total_categories=45, seed=71, duration_days=180.0
    )
    train, _ = corpus.chronological_split(0.75)
    copilot = RCACopilot(
        TelemetryHub(), registry=_replay_registry(), model=SimulatedLLM()
    )
    copilot.index_history(train)
    return copilot


def _replay_config(workers, autoscaled: bool) -> IngestConfig:
    policy = None
    if autoscaled:
        policy = AutoscalePolicy(
            high_utilization=0.8,
            low_utilization=0.3,
            ewma_alpha=1.0,
            hysteresis_batches=1,
            shrink_step=2,
            cooldown_seconds=0.0,
            burst_queue_factor=1.5,
        )
    return IngestConfig(
        max_batch=REPLAY_MAX_BATCH,
        max_latency_seconds=120.0,
        collect_workers=workers,
        collect_workers_min=1,
        collect_workers_max=max(REPLAY_STATIC_POOLS),
        autoscale=policy,
    )


def _replay_once(recording, config: IngestConfig) -> tuple:
    """(wall seconds, worker-seconds, labels, stats) for one pool config."""
    from repro.bus import BusReplayer

    copilot = _replay_copilot()
    ingestor = copilot.stream(config)
    started = time.perf_counter()
    result = BusReplayer(recording, speed=REPLAY_SPEED).replay(ingestor)
    wall = time.perf_counter() - started
    ingestor.stop()
    assert not result.failures
    assert len(result.reports) == len(recording.alerts)
    worker_seconds = copilot.hub.metrics.latest(
        "rcacopilot.ingest.collect_worker_seconds_total", "stream-ingestor"
    )
    labels = [report.predicted_label for report in result.reports]
    return wall, worker_seconds, labels, result.stats


def test_replay_flash_crowd_autoscale_ab(replay_profile):
    """``--replay`` profile: autoscaler vs static pools on recorded traffic.

    The flash-crowd corpus (calm -> dense multi-category burst -> cool-down)
    replays at 2000x on the real clock through static pools of 1/2/4
    workers and the autoscaled (1..4) pool.  Gates: every pool shape
    reproduces identical labels and identical ingest counters (the replay
    determinism contract), the autoscaled pool rides the burst within 1.3x
    of the best static wall clock, and it pays fewer worker-seconds than
    the largest static pool (the calm and cool-down phases are where it
    shrinks).
    """
    if not replay_profile:
        pytest.skip("recorded-traffic replay profile runs with --replay")
    from repro.bus.corpora import load_corpus

    global COLLECT_SLEEP_SECONDS
    recording = load_corpus(REPLAY_CORPUS)
    previous_sleep = COLLECT_SLEEP_SECONDS
    COLLECT_SLEEP_SECONDS = REPLAY_SLEEP_SECONDS
    try:
        results = {}
        for workers in REPLAY_STATIC_POOLS:
            results[f"static_{workers}"] = _replay_once(
                recording, _replay_config(workers, autoscaled=False)
            )
        auto_wall, auto_ws, auto_labels, auto_stats = _replay_once(
            recording, _replay_config(None, autoscaled=True)
        )
    finally:
        COLLECT_SLEEP_SECONDS = previous_sleep

    print()
    print(
        f"replay A/B ({REPLAY_CORPUS}: {len(recording.alerts)} alerts over "
        f"{recording.duration_seconds:.0f}s recorded, {REPLAY_SPEED:.0f}x, "
        f"{REPLAY_SLEEP_SECONDS * 1000:.0f}ms simulated I/O per handler)"
    )
    print(f"{'pool':>12} {'wall s':>8} {'worker-s':>9}")
    for name, (wall, worker_seconds, _, _) in results.items():
        print(f"{name:>12} {wall:>8.2f} {worker_seconds:>9.2f}")
    print(f"{'autoscaled':>12} {auto_wall:>8.2f} {auto_ws:>9.2f}")

    # Replay determinism across pool shapes: identical labels and counters.
    baseline_stats = auto_stats.as_dict()
    for name, (_, _, labels, stats) in results.items():
        assert labels == auto_labels, f"label mismatch vs {name}"
        assert stats.as_dict() == baseline_stats, f"stats mismatch vs {name}"

    best_name = min(results, key=lambda name: results[name][0])
    best_wall = results[best_name][0]
    largest = f"static_{max(REPLAY_STATIC_POOLS)}"
    largest_ws = results[largest][1]
    wall_ratio = auto_wall / best_wall
    print(
        f"best static: {best_name} ({best_wall:.2f}s); autoscaled "
        f"{wall_ratio:.2f}x wall, {auto_ws / largest_ws:.2f}x worker-seconds "
        f"vs {largest}"
    )
    merged = read_results("BENCH_throughput.json")
    merged.setdefault("benchmark", "throughput_batch")
    merged["replay"] = {
        "corpus": REPLAY_CORPUS,
        "speed": REPLAY_SPEED,
        "alerts": len(recording.alerts),
        "feedbacks": len(recording.feedbacks),
        "recorded_seconds": recording.duration_seconds,
        "sleep_seconds": REPLAY_SLEEP_SECONDS,
        "cores": os.cpu_count() or 1,
        "static": {
            name: {"wall_seconds": wall, "worker_seconds": worker_seconds}
            for name, (wall, worker_seconds, _, _) in results.items()
        },
        "autoscaled": {
            "wall_seconds": auto_wall,
            "worker_seconds": auto_ws,
            "wall_ratio_vs_best_static": wall_ratio,
            "worker_seconds_ratio_vs_largest_static": auto_ws / largest_ws,
        },
    }
    path = write_results("BENCH_throughput.json", merged)
    print(f"machine-readable results: {path}")
    assert wall_ratio <= 1.3, (
        f"autoscaled pool must replay the flash crowd within 1.3x of the "
        f"best static size ({best_name}), got {wall_ratio:.2f}x"
    )
    assert auto_ws < largest_ws, (
        f"autoscaled pool must spend fewer worker-seconds than {largest} "
        f"({auto_ws:.2f} vs {largest_ws:.2f})"
    )


# -------------------------------------------------------------------- chaos
#: Chaos-resilience profile: the same collect-bound stream, once healthy
#: and once with 10% of LLM calls timing out (injected), absorbed by the
#: retry/degradation layer.  Gates: every submitted future resolves, and
#: the faulted run stays within 2x of the healthy wall clock — resilience
#: must cost retries, not liveness or unbounded latency.  ``--chaos``
#: lengthens the stream to soak scale.
CHAOS_ALERTS = 32
CHAOS_SOAK_ALERTS = 96
CHAOS_FAULT_RATE = 0.1
#: Seed choice: injection draws are per-(seed, site) deterministic; 7 is a
#: realization whose first few draws include real fires, so even the quick
#: (non-soak) stream exercises the retry path instead of a trivially
#: healthy run.
CHAOS_SEED = 7


def _chaos_ingest(copilot, alerts, workers=COLLECT_WORKERS):
    """(wall seconds, resolved reports, failed futures) for one stream."""
    ingestor = copilot.stream(
        IngestConfig(
            max_batch=16,
            max_latency_seconds=5.0,
            collect_workers=workers,
        )
    )
    futures = ingestor.submit_many(alerts)
    started = time.perf_counter()
    ingestor.flush()
    seconds = time.perf_counter() - started
    ingestor.stop()
    reports, failed = [], 0
    for future in futures:
        assert future.done()  # zero lost futures, even under faults
        try:
            reports.append(future.result())
        except Exception:  # noqa: BLE001 - the failure count is the datum
            failed += 1
    return seconds, reports, failed


def test_chaos_resilient_ingest(chaos_soak):
    """10% injected LLM timeouts cost <= 2x wall time and zero lost futures."""
    from repro.chaos import (
        FaultConfig,
        FaultInjector,
        FaultyChatModel,
        ResilientChatModel,
        RetryPolicy,
    )
    from repro.core.errors import LLMTimeoutError

    count = CHAOS_SOAK_ALERTS if chaos_soak else CHAOS_ALERTS
    healthy_copilot = _collect_bound_copilot()
    healthy_copilot.observe(_collect_bound_alerts(1)[0])  # untimed warm-up
    healthy_seconds, healthy_reports, healthy_failed = _chaos_ingest(
        healthy_copilot, _collect_bound_alerts(count)
    )
    assert healthy_failed == 0 and len(healthy_reports) == count

    injector = FaultInjector(seed=CHAOS_SEED)
    chaos_model = ResilientChatModel(
        FaultyChatModel(SimulatedLLM(), injector),
        RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
    )
    registry = HandlerRegistry()
    registry.register(
        linear_handler(
            "CollectBound",
            "collect-bound",
            [
                QueryAction(
                    "slow_probe",
                    source="metrics",
                    metric_names=["delivery_queue_length"],
                    classify=_bench_sleep_classifier,
                ),
                QueryAction("recent_events", source="events"),
            ],
        )
    )
    corpus = generate_corpus(
        total_incidents=160, total_categories=45, seed=71, duration_days=180.0
    )
    train, _ = corpus.chronological_split(0.75)
    chaos_copilot = RCACopilot(
        TelemetryHub(), registry=registry, model=chaos_model
    )
    chaos_copilot.index_history(train)
    chaos_copilot.observe(_collect_bound_alerts(1)[0])  # untimed warm-up
    # Armed only now: warm-up and history indexing above ran fault-free.
    injector.add(
        FaultConfig(
            site="llm.complete",
            probability=CHAOS_FAULT_RATE,
            error=LLMTimeoutError,
        )
    )
    chaos_seconds, chaos_reports, chaos_failed = _chaos_ingest(
        chaos_copilot, _collect_bound_alerts(count)
    )
    assert chaos_failed == 0 and len(chaos_reports) == count

    wall_ratio = chaos_seconds / healthy_seconds
    retry_stats = chaos_model.stats_dict()
    injections = injector.stats_dict()["injections_total"]
    degraded_labels = sum(
        1 for report in chaos_reports if report.predicted_label == "Unknown"
    )
    print()
    print(
        f"chaos ingest ({count} alerts, {CHAOS_FAULT_RATE:.0%} injected LLM "
        f"timeouts, seed {CHAOS_SEED}): healthy {healthy_seconds:.2f}s, "
        f"chaos {chaos_seconds:.2f}s ({wall_ratio:.2f}x), "
        f"{injections:.0f} injected faults, {retry_stats['retries']:.0f} retries, "
        f"{retry_stats['degraded']:.0f} degraded completions, "
        f"{degraded_labels} degraded labels"
    )
    merged = read_results("BENCH_throughput.json")
    merged.setdefault("benchmark", "throughput_batch")
    merged["chaos"] = {
        "alerts": count,
        "fault_rate": CHAOS_FAULT_RATE,
        "seed": CHAOS_SEED,
        "soak": bool(chaos_soak),
        "cores": os.cpu_count() or 1,
        "healthy_seconds": healthy_seconds,
        "chaos_seconds": chaos_seconds,
        "wall_ratio": wall_ratio,
        "lost_futures": chaos_failed,
        "injections": injections,
        "retries": retry_stats["retries"],
        "degraded_completions": retry_stats["degraded"],
        "degraded_labels": degraded_labels,
    }
    path = write_results("BENCH_throughput.json", merged)
    print(f"machine-readable results: {path}")
    assert injections >= 1, "no fault fired: the chaos run was trivially healthy"
    assert wall_ratio <= 2.0, (
        f"the resilient stream must absorb {CHAOS_FAULT_RATE:.0%} LLM "
        f"timeouts within 2x of the healthy wall clock, got {wall_ratio:.2f}x"
    )
