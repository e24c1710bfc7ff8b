#!/usr/bin/env python3
"""Streaming triage: micro-batch a continuous alert stream end to end.

Demonstrates the streaming deployment shape of RCACopilot:

1. boot the simulated Transport service and index a labelled history into
   the **sharded** retrieval index (time-window shards, exact pruning,
   auto-selected window width, self-compaction);
2. start a :class:`~repro.core.StreamIngestor`: alerts submitted one at a
   time are grouped into micro-batches automatically (an idle worker takes
   what is queued at once; batches fill while it is busy, up to
   ``max_batch`` — nothing waits on a timer), and each
   batch's collection phase (handler action graphs) fans out to a worker
   pool (``collect_workers``) while prediction stays batched — outcomes
   fold back in submission order, so reports are identical to serial;
   with ``pipeline_depth=2`` the two phases run as a double-buffered
   pipeline (wave N+1 collects while wave N predicts) without changing a
   single report or counter; faults are injected and each detected alert
   is submitted as it appears — exactly how an always-on deployment
   receives monitors' output;
3. fold an on-call engineer's confirmed label back in *mid-stream* and
   show the corrected incident surfacing as a neighbour right away;
4. print the ingestion and index statistics (batch sizes, flush reasons,
   scanned-shard ratio);
5. run the same stream against a flaky LLM behind the resilience layer:
   retries, then degraded "Unknown" completions, and no lost future;
6. replay a checked-in recorded corpus (``benchmarks/corpora/``) through a
   fresh copilot at 1000x on a virtual clock — the replayer applies its
   size/latency batching on the *recorded* timeline, so reports and
   ingest counters are bit-identical at every speed.

Run with::

    PYTHONPATH=src python examples/streaming_triage.py
"""

from __future__ import annotations

from repro.bus import BusReplayer
from repro.bus.corpora import load_corpus
from repro.chaos import (
    FaultConfig,
    FaultInjector,
    FaultyChatModel,
    ResilientChatModel,
    RetryPolicy,
)
from repro.cloudsim import TransportService
from repro.core import (
    AutoscalePolicy,
    IndexConfig,
    IngestConfig,
    PipelineConfig,
    RCACopilot,
    VirtualClock,
)
from repro.core.errors import LLMUnavailableError
from repro.datagen import generate_corpus
from repro.llm import SimulatedLLM
from repro.telemetry import TelemetryHub
from repro.vectordb import CompactionPolicy


FAULTS = ("HubPortExhaustion", "DeliveryHang", "FullDisk", "CodeRegression")


def main() -> None:
    print("== 1. Boot the service and index history into the sharded index ==")
    service = TransportService(seed=11)
    service.warm_up(hours=1.0)
    config = PipelineConfig(
        # The index's perf knobs: window_days=None auto-derives the shard
        # width from the history, and the compaction policy keeps the layout
        # balanced as feedback keeps appending incidents.
        index=IndexConfig(
            window_days=None,
            compaction=CompactionPolicy(
                min_entries=8, max_entries=128, auto=True, check_every=64
            ),
        ),
        # The collection phase of each micro-batch (handler action graphs:
        # log pulls, probe queries) runs on a worker-thread pool whose size
        # is autoscaled between 1 and 4 from measured per-batch utilization
        # (grow on sustained high utilization or a deep backlog, shrink
        # when idle; resizes only at batch boundaries).  Diagnosis reports
        # and ingest counters are identical to any static pool size.
        ingest=IngestConfig(
            max_batch=4,
            max_latency_seconds=0.2,
            collect_workers_min=1,
            collect_workers_max=4,
            autoscale=AutoscalePolicy(
                high_utilization=0.75,
                low_utilization=0.25,
                hysteresis_batches=1,
                cooldown_seconds=0.0,
            ),
            # Double-buffered ingestion: wave N+1's collection overlaps
            # wave N's (strictly serialized) prediction.  Reports, feedback
            # visibility, and every ingest counter are identical to barrier
            # execution.
            pipeline_depth=2,
        ),
    )
    copilot = RCACopilot(service.hub, config=config)
    history = generate_corpus(
        total_incidents=150, total_categories=40, seed=3, duration_days=180.0
    )
    copilot.index_history(history)
    window_days = copilot.prediction.resolved_window_days
    print(f"auto-selected shard width: {window_days:g} days")
    print(
        f"planned shard layout ({window_days:g}-day windows): "
        f"{history.shard_counts(window_days)}"
    )
    stats = copilot.prediction.index.stats()
    print(
        f"indexed {int(stats['entries'])} incidents into "
        f"{int(stats['shard_count'])} time-window shards "
        f"(largest: {int(stats['max_shard_size'])}, "
        f"median: {int(stats['median_shard_size'])} entries)"
    )

    print("\n== 2. Stream alerts through the micro-batching ingestor ==")
    # Collect the monitors' alerts first: fault injection writes into the
    # same TelemetryHub the handlers read, so the simulation must not run
    # concurrently with the worker thread (see the StreamIngestor threading
    # contract).  A real deployment receives alerts from outside instead.
    detected = []
    for round_index in range(2):
        for fault in FAULTS:
            outcome = service.inject_and_detect(fault)
            if outcome.primary_alert is not None:
                detected.append((fault, outcome.primary_alert))
    with copilot.stream() as ingestor:
        futures = [(fault, ingestor.submit(alert)) for fault, alert in detected]
        reports = [(fault, future.result(timeout=60.0)) for fault, future in futures]
    for fault, report in reports:
        print(
            f"  {report.incident.incident_id}: predicted "
            f"{report.predicted_label!r} (injected fault: {fault})"
        )

    print("\n== 3. Record OCE feedback mid-stream ==")
    confirmed = reports[0][1].incident
    ingestor.record_feedback(confirmed, reports[0][0])
    print(f"confirmed {confirmed.incident_id} as {reports[0][0]!r}; replaying the alert...")
    outcome = service.inject_and_detect(reports[0][0])
    if outcome.primary_alert is not None:
        ingestor.submit(outcome.primary_alert)
        recurrence = ingestor.flush()[0]
        neighbor_ids = [n.incident_id for n in recurrence.prediction.neighbors]
        marker = "listed" if confirmed.incident_id in neighbor_ids else "not listed"
        print(
            f"recurrence {recurrence.incident.incident_id} predicted "
            f"{recurrence.predicted_label!r}; fed-back incident {marker} "
            f"among its neighbours"
        )

    print("\n== 4. Ingestion and retrieval statistics ==")
    ingest = ingestor.stats()
    print(
        f"ingested {ingest.processed} alerts in {ingest.batches} micro-batches "
        f"(flush reasons: {ingest.flush_reasons}, "
        f"collect failures: {ingest.collect_failures})"
    )
    pool_size = copilot.hub.metrics.latest(
        "rcacopilot.ingest.collect_pool_size", "stream-ingestor"
    )
    utilization = copilot.hub.metrics.latest(
        "rcacopilot.ingest.collect_utilization", "stream-ingestor"
    )
    collect_seconds = copilot.hub.metrics.latest(
        "rcacopilot.ingest.collect_seconds", "stream-ingestor"
    )
    predict_seconds = copilot.hub.metrics.latest(
        "rcacopilot.ingest.predict_seconds", "stream-ingestor"
    )
    print(
        f"collection pool: {int(pool_size)} worker(s), last batch "
        f"{utilization:.0%} utilised (collect {collect_seconds * 1000:.1f}ms, "
        f"predict {predict_seconds * 1000:.1f}ms)"
    )
    flat = ingestor.stats_dict()
    print(
        f"pipeline: {flat['pipeline_overlap_seconds'] * 1000:.1f}ms of "
        f"collect/predict overlap (collect busy "
        f"{flat['collect_busy_fraction']:.0%}, predict busy "
        f"{flat['predict_busy_fraction']:.0%} of the stream's span; "
        f"{int(flat['predict_inflight'])} prediction(s) still in flight)"
    )
    print(
        f"autoscaler: pool now {int(flat['autoscale_pool_size'])} worker(s) in "
        f"[{int(flat['autoscale_pool_min'])}, {int(flat['autoscale_pool_max'])}], "
        f"utilization EWMA {flat['autoscale_utilization_ewma']:.0%}; "
        f"{int(flat['autoscale_scale_up_total'])} scale-up(s) "
        f"({int(flat['autoscale_burst_grow_total'])} burst), "
        f"{int(flat['autoscale_scale_down_total'])} scale-down(s)"
    )
    index_stats = copilot.prediction.index.stats()
    print(
        f"retrieval scanned {index_stats['scanned_shard_ratio']:.0%} of "
        f"(query, shard) pairs across {int(index_stats['queries'])} queries "
        f"({int(index_stats['shards_pruned'])} shard visits pruned by the "
        f"exact score bound)"
    )
    print(
        f"compaction: {int(index_stats['compactions'])} pass(es), "
        f"{int(index_stats['shards_merged'])} shards merged, "
        f"{int(index_stats['shards_split'])} split; median shard now "
        f"{int(index_stats['median_shard_size'])} entries"
    )

    print("\n== 5. Chaos pass: a flaky LLM behind the resilience layer ==")
    # The same stream, but a third of the LLM calls now fail (injected,
    # seeded — reruns reproduce the exact outage schedule).  The resilient
    # wrapper retries with capped exponential backoff; when a call's
    # attempts are exhausted it degrades that wave's LLM batch to the
    # explicit manual-triage category instead of failing the batch — no
    # submitted alert ever loses its future.
    injector = FaultInjector(seed=7)
    resilient_model = ResilientChatModel(
        FaultyChatModel(SimulatedLLM(), injector),
        RetryPolicy(max_attempts=3, base_delay_seconds=0.01),
    )
    chaos_copilot = RCACopilot(service.hub, model=resilient_model, config=config)
    chaos_copilot.index_history(history)
    # Armed only now, so history indexing above ran fault-free.
    injector.add(
        FaultConfig(
            site="llm.complete", probability=0.35, error=LLMUnavailableError
        )
    )
    with chaos_copilot.stream() as chaos_ingestor:
        chaos_futures = [chaos_ingestor.submit(alert) for _, alert in detected]
        chaos_reports = [f.result(timeout=60.0) for f in chaos_futures]
    retry_stats = resilient_model.stats_dict()
    fault_stats = injector.stats_dict()
    degraded = [r for r in chaos_reports if r.predicted_label == "Unknown"]
    print(
        f"  {len(chaos_reports)}/{len(detected)} futures resolved under "
        f"{fault_stats['injections_total']:.0f} injected LLM outages"
    )
    print(
        f"  resilience: {retry_stats['retries']:.0f} retries, "
        f"{retry_stats['degraded']:.0f} degraded completions, "
        f"{retry_stats['breaker_trips']:.0f} breaker trip(s)"
    )
    print(
        f"  {len(degraded)} report(s) routed to manual triage as 'Unknown' "
        f"instead of failing their batch"
    )

    print("\n== 6. Replay pass: recorded traffic, faster than real time ==")
    # The flash-crowd corpus is ~40 minutes of recorded bus traffic (calm
    # phase, dense multi-category burst, cool-down) captured with
    # TrafficRecorder from a cloudsim workload and checked in under
    # benchmarks/corpora/.  BusReplayer applies its own size /
    # max_latency_seconds batching on the *recorded* timeline while
    # pacing the injected clock at the speed multiplier — on a
    # VirtualClock the whole recording plays back in milliseconds with
    # reports, labels, feedback effects and every ingest counter
    # bit-identical to a real-time replay.
    recording = load_corpus("flash_crowd")
    replay_clock = VirtualClock()
    replay_copilot = RCACopilot(
        TelemetryHub(), model=SimulatedLLM(), config=config, clock=replay_clock
    )
    replay_copilot.index_history(history)
    # stream() without start: the replayer *is* the worker here.
    replay_ingestor = replay_copilot.stream(
        IngestConfig(max_batch=8, max_latency_seconds=120.0)
    )
    try:
        result = BusReplayer(recording, speed=1000.0).replay(replay_ingestor)
    finally:
        replay_ingestor.stop()
    replay_stats = result.stats
    print(
        f"  replayed {len(recording.events)} recorded events "
        f"({replay_stats.processed} alerts, {result.feedbacks} feedback "
        f"confirmations) spanning {result.recorded_seconds:.0f}s of recorded "
        f"traffic in {result.replay_seconds:.2f}s of virtual clock time "
        f"at {result.speed:g}x"
    )
    print(
        f"  {len(result.reports)} reports in {replay_stats.batches} "
        f"micro-batches (flush reasons: {replay_stats.flush_reasons}); "
        f"replaying again — at any speed — reproduces them byte for byte"
    )


if __name__ == "__main__":
    main()
