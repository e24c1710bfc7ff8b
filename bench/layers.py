"""Per-layer metrics of a traced pass, named after the repo's modules.

``PER_LAYER`` is the canonical list (``BENCHMARK.json`` mirrors it and a
test keeps the two equal).  Every traced run reports every metric; one a
workload does not exercise reads 0.  Unless marked *set-up*, a metric
counts only spans that started inside the timed window, so a ``busy_s``
divided by the window's length is that layer's share of it.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from .trace import Span, SpanTable
from .workloads import Measured, percentile

#: (name, unit, better).  README.md maps each to the end-to-end metric it
#: is expected to move.
PER_LAYER: List[Tuple[str, str, str]] = [
    # bus
    ("bus.build.busy_s", "s", "lower"),  # set-up
    ("bus.replay.events", "count", "higher"),
    # core.streaming
    ("streaming.queue_wait_p50_ms", "ms", "lower"),
    ("streaming.queue_wait_p95_ms", "ms", "lower"),
    ("streaming.resolve_p50_ms", "ms", "lower"),
    ("streaming.submit.busy_s", "s", "lower"),
    ("streaming.flush.self_s", "s", "lower"),
    ("streaming.batches", "count", "lower"),
    ("streaming.batch_size_mean", "count", "higher"),
    ("streaming.flush_size_share", "share", "higher"),
    ("streaming.backlog_end", "count", "lower"),
    ("streaming.reconcile_err_pct", "%", "lower"),
    # core.collection + monitors, telemetry, handlers
    ("collection.parse.busy_s", "s", "lower"),
    ("collection.parse.calls", "count", "higher"),
    ("collection.collect.busy_s", "s", "lower"),
    ("collection.collect.calls", "count", "higher"),
    ("collection.collected_share", "share", "higher"),
    ("telemetry.query.busy_s", "s", "lower"),
    ("telemetry.query.calls", "count", "lower"),
    ("handlers.self_s", "s", "lower"),
    # llm
    ("llm.summarize.busy_s", "s", "lower"),
    ("llm.summarize.texts", "count", "lower"),
    ("llm.predict.busy_s", "s", "lower"),
    ("llm.predict.prompts", "count", "higher"),
    ("llm.model.busy_s", "s", "lower"),
    ("llm.model.requests", "count", "lower"),
    ("llm.dedup_ratio", "ratio", "higher"),
    # embedding
    ("embedding.fit.busy_s", "s", "lower"),  # set-up
    ("embedding.embed.busy_s", "s", "lower"),
    ("embedding.embed.texts", "count", "lower"),
    # core.prediction
    ("prediction.busy_s", "s", "lower"),
    ("prediction.self_s", "s", "lower"),
    ("prediction.summary_cache_hit_ratio", "ratio", "higher"),
    ("prediction.embedding_cache_hit_ratio", "ratio", "higher"),
    # vectordb
    ("vectordb.search.busy_s", "s", "lower"),
    ("vectordb.search.queries", "count", "higher"),
    ("vectordb.scanned_shard_ratio", "ratio", "lower"),
    ("vectordb.scanned_entry_ratio", "ratio", "lower"),
    ("vectordb.add_many.busy_s", "s", "lower"),
    ("vectordb.add_many.setup_busy_s", "s", "lower"),  # set-up
    ("vectordb.add.busy_s", "s", "lower"),
    ("vectordb.add.entries", "count", "higher"),
    ("vectordb.update_category.busy_s", "s", "lower"),
    ("vectordb.save.busy_s", "s", "lower"),
    ("vectordb.save.bytes", "bytes", "lower"),
    ("vectordb.load.busy_s", "s", "lower"),  # after the window
    ("vectordb.compactions", "count", "lower"),
    ("vectordb.shards_split", "count", "lower"),
    # core.pipeline
    ("pipeline.diagnose.busy_s", "s", "lower"),
    ("pipeline.fold.self_s", "s", "lower"),
    ("pipeline.label_accuracy", "share", "higher"),
    # the benchmark itself
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("bench.latency_p90_ms", "ms", "lower"),
    ("bench.latency_p95_ms", "ms", "lower"),
    ("bench.latency_p99_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("bench.cpu_wall_ratio", "ratio", "higher"),
    ("bench.rounds", "count", "higher"),
    ("bench.box_speed", "ratio", "higher"),  # probe.py; 1.0 = reference
    ("bench.raw_items_per_s", "1/s", "higher"),  # this pass, as timed
]

#: Spans the benchmark opens around its own calls to group work; they are
#: not program layers, so time only they cover counts as unattributed.
GROUPING_SPANS = ("bus.build", "bus.replay")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(measured: Measured, counter: str) -> float:
    return measured.counters_after.get(counter, 0.0) - measured.counters_before.get(counter, 0.0)


def _hit_ratio(measured: Measured, kind: str) -> float:
    hits = _delta(measured, f"cache.{kind}_hits")
    return _ratio(hits, hits + _delta(measured, f"cache.{kind}_misses"))


def request_timeline(
    table: SpanTable, measured: Measured
) -> Dict[str, List[float]]:
    """Per-alert latency components, joined on the alert id.

    The k-th ``submit`` of an alert id pairs with the k-th ``parse_alert``
    of that id; the batch's prediction is the first ``diagnose_collected``
    on the parsing thread that starts after the parse.  Components, in
    order: generator lateness, queue wait (submit to parse start), the
    batch's collection (parse start to prediction start), prediction, and
    resolve (prediction return to the future's done-callback).
    """
    submits = sorted(table.named("streaming.submit"), key=lambda span: span.start)
    parses: Dict[Optional[str], List[Span]] = {}
    for span in sorted(table.named("collection.parse"), key=lambda span: span.start):
        parses.setdefault(span.key, []).append(span)
    diagnoses = sorted(table.named("pipeline.diagnose"), key=lambda span: span.start)
    diagnose_starts = [span.start for span in diagnoses]
    taken: Dict[Optional[str], int] = {}
    out: Dict[str, List[float]] = {
        name: [] for name in ("late", "queue_wait", "collect", "predict", "resolve", "error_pct")
    }
    for submit, due, done in zip(submits, measured.due_at, measured.done_at):
        occurrence = taken.get(submit.key, 0)
        taken[submit.key] = occurrence + 1
        candidates = parses.get(submit.key, [])
        if done is None or occurrence >= len(candidates):
            continue
        parse = candidates[occurrence]
        position = bisect.bisect_left(diagnose_starts, parse.end)
        if position >= len(diagnoses):
            continue
        diagnose = diagnoses[position]
        parts = (
            submit.start - due,
            parse.start - submit.start,
            diagnose.start - parse.start,
            diagnose.seconds,
            done - diagnose.end,
        )
        for name, value in zip(("late", "queue_wait", "collect", "predict", "resolve"), parts):
            out[name].append(value * 1e3)
        latency = done - due
        out["error_pct"].append(abs(sum(parts) - latency) / latency * 100.0 if latency > 0 else 0.0)
    return out


def per_layer_metrics(
    spans: Sequence[Span],
    measured: Measured,
    span_cost_seconds: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced pass."""
    low, high = measured.window
    everything = SpanTable(spans)
    setup = SpanTable(spans, window=(float("-inf"), low))
    timed = SpanTable(spans, window=(low, high))
    wall = measured.wall_seconds

    timeline = request_timeline(timed, measured)
    prompts = timed.units("llm.predict")
    requests_under_predict = sum(
        span.units
        for span in timed.outermost("llm.model")
        if timed.has_ancestor(span, "llm.predict")
    )
    batches = _delta(measured, "ingest.batches")
    layer_names = sorted(
        {span.name for span in timed.spans if span.name not in GROUPING_SPANS}
    )

    def p(values: List[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    values: Dict[str, float] = {
        "bus.build.busy_s": setup.busy("bus.build"),
        "bus.replay.events": float(timed.units("bus.replay")),
        "streaming.queue_wait_p50_ms": p(timeline["queue_wait"], 50),
        "streaming.queue_wait_p95_ms": p(timeline["queue_wait"], 95),
        "streaming.resolve_p50_ms": p(timeline["resolve"], 50),
        "streaming.submit.busy_s": timed.busy("streaming.submit"),
        "streaming.flush.self_s": timed.self_time("streaming.flush"),
        "streaming.batches": batches,
        "streaming.batch_size_mean": _ratio(_delta(measured, "ingest.processed"), batches),
        "streaming.flush_size_share": _ratio(_delta(measured, "ingest.flush_reason_size"), batches),
        "streaming.backlog_end": measured.extra.get(
            "backlog_end", measured.counters_after.get("ingest.queue_depth", 0.0)
        ),
        "streaming.reconcile_err_pct": (
            statistics.median(timeline["error_pct"]) if timeline["error_pct"] else 0.0
        ),
        "collection.parse.busy_s": timed.busy("collection.parse"),
        "collection.parse.calls": float(timed.calls("collection.parse")),
        "collection.collect.busy_s": timed.busy("collection.collect"),
        "collection.collect.calls": float(timed.calls("collection.collect")),
        "collection.collected_share": _ratio(measured.collected, measured.items),
        "telemetry.query.busy_s": timed.busy("telemetry.query"),
        "telemetry.query.calls": float(timed.calls("telemetry.query")),
        "handlers.self_s": timed.self_time("collection.collect"),
        "llm.summarize.busy_s": timed.busy("llm.summarize"),
        "llm.summarize.texts": float(timed.units("llm.summarize")),
        "llm.predict.busy_s": timed.busy("llm.predict"),
        "llm.predict.prompts": float(prompts),
        "llm.model.busy_s": timed.busy("llm.model"),
        "llm.model.requests": float(timed.units("llm.model")),
        "llm.dedup_ratio": _ratio(prompts, requests_under_predict),
        "embedding.fit.busy_s": setup.busy("embedding.fit"),
        "embedding.embed.busy_s": timed.busy("embedding.embed"),
        "embedding.embed.texts": float(timed.units("embedding.embed")),
        "prediction.busy_s": timed.busy("prediction"),
        "prediction.self_s": timed.self_time("prediction"),
        "prediction.summary_cache_hit_ratio": _hit_ratio(measured, "summary"),
        "prediction.embedding_cache_hit_ratio": _hit_ratio(measured, "embedding"),
        "vectordb.search.busy_s": timed.busy("vectordb.search"),
        "vectordb.search.queries": float(timed.units("vectordb.search")),
        "vectordb.scanned_shard_ratio": measured.counters_after.get("index.scanned_shard_ratio", 0.0),
        "vectordb.scanned_entry_ratio": measured.counters_after.get("index.scanned_entry_ratio", 0.0),
        "vectordb.add_many.busy_s": timed.busy("vectordb.add_many"),
        "vectordb.add_many.setup_busy_s": setup.busy("vectordb.add_many"),
        "vectordb.add.busy_s": timed.busy("vectordb.add"),
        "vectordb.add.entries": float(timed.units("vectordb.add")),
        "vectordb.update_category.busy_s": timed.busy("vectordb.update_category"),
        "vectordb.save.busy_s": timed.busy("vectordb.save"),
        "vectordb.save.bytes": measured.extra.get("snapshot_bytes", 0.0),
        "vectordb.load.busy_s": everything.busy("vectordb.load"),
        "vectordb.compactions": _delta(measured, "index.compactions"),
        "vectordb.shards_split": _delta(measured, "index.shards_split"),
        "pipeline.diagnose.busy_s": timed.busy("pipeline.diagnose"),
        "pipeline.fold.self_s": timed.self_time("pipeline.diagnose"),
        "pipeline.label_accuracy": _ratio(measured.labelled_correct, measured.labelled),
        "loadgen.late_p99_ms": measured.extra.get("late_p99_ms", 0.0),
        "bench.latency_p90_ms": p(measured.latencies_ms, 90),
        "bench.latency_p95_ms": p(measured.latencies_ms, 95),
        "bench.latency_p99_ms": p(measured.latencies_ms, 99),
        "trace.overhead_pct": _ratio(span_cost_seconds * len(timed.spans), wall) * 100.0,
        "trace.unattributed_share": timed.uncovered_share(layer_names, low, high),
        "bench.cpu_wall_ratio": _ratio(measured.cpu_seconds, wall),
        "bench.rounds": float(len(measured.round_items)),
        "bench.box_speed": statistics.median(measured.round_speed),
        "bench.raw_items_per_s": _ratio(measured.items, wall),
    }
    return values
