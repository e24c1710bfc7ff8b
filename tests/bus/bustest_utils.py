"""Shared builders for the record/replay bus test suites.

The replay determinism suites compare full runs value-for-value, so every
ingredient here is deterministic by construction: the copilot embeds a
seeded synthetic history over an empty telemetry hub (handler queries
return the same — empty — sections on every run), the ingest config pins a
static pool, and :func:`replay_digest` folds everything observable about a
replay (rendered reports, predicted labels, failures, ingest counters,
post-feedback index state) into one sha256 the golden-traffic suite can
check in as a fixture.

Import with a plain ``import bustest_utils`` — pytest puts each test
file's directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

from repro.bus import BusReplayer, Recording, ReplayResult
from repro.core import (
    CollectionConfig,
    IndexConfig,
    IngestConfig,
    PipelineConfig,
    RCACopilot,
    VirtualClock,
)
from repro.core.clock import Clock
from repro.datagen import generate_corpus
from repro.llm import SimulatedLLM
from repro.telemetry import TelemetryHub

#: The golden suites' historical corpus (a pure function of this spec).
HISTORY_SPEC = {
    "total_incidents": 60,
    "total_categories": 14,
    "seed": 5,
    "duration_days": 90.0,
}


def build_replay_copilot(clock: Optional[Clock] = None) -> RCACopilot:
    """A deterministic indexed copilot over the default handler registry.

    The hub is empty on purpose: handler queries over it are trivially
    deterministic, and the recorded corpora carry everything the replay
    needs in the alerts themselves.
    """
    config = PipelineConfig(
        collection=CollectionConfig(strict=False),
        index=IndexConfig(window_days=20.0),
    )
    copilot = RCACopilot(
        TelemetryHub(), model=SimulatedLLM(), config=config, clock=clock
    )
    copilot.index_history(generate_corpus(**HISTORY_SPEC))
    return copilot


def replay_ingest_config(
    max_batch: int = 8,
    max_latency: float = 120.0,
    collect_workers: Optional[int] = None,
    pipeline_depth: int = 1,
) -> IngestConfig:
    """The replay suites' ingest config: static pool, generous queue."""
    return IngestConfig(
        max_batch=max_batch,
        max_latency_seconds=max_latency,
        collect_workers=collect_workers,
        pipeline_depth=pipeline_depth,
    )


def build_cheap_copilot(clock: Optional[Clock] = None) -> RCACopilot:
    """A collection-only copilot (no handlers, no index) for cheap tests."""
    from repro.handlers import HandlerRegistry

    return RCACopilot(
        TelemetryHub(),
        registry=HandlerRegistry(),
        model=SimulatedLLM(),
        config=PipelineConfig(collection=CollectionConfig(strict=False)),
        clock=clock,
    )


def make_bus_alert(index: int, alert_type: str = "DiskSpaceLow"):
    """A deterministic Table-1-typed alert for record/replay round trips."""
    from repro.monitors import Alert, AlertScope

    return Alert(
        alert_id=f"AL-RR-{index:05d}",
        alert_type=alert_type,
        scope=AlertScope.FOREST,
        timestamp=7200.0 + 13.0 * index,
        machine="",
        forest="forest-01",
        message=f"bus round-trip alert {index}",
        severity=3,
        attributes={"seq": str(index)},
    )


def run_replay(
    recording: Recording,
    speed: float,
    config: Optional[IngestConfig] = None,
    clock: Optional[Clock] = None,
    copilot: Optional[RCACopilot] = None,
) -> Tuple[ReplayResult, RCACopilot]:
    """One full replay through a fresh copilot; returns (result, copilot)."""
    clock = clock if clock is not None else VirtualClock()
    if copilot is None:
        copilot = build_replay_copilot(clock=clock)
    ingestor = copilot.stream(
        config if config is not None else replay_ingest_config(), clock=clock
    )
    try:
        result = BusReplayer(recording, speed=speed).replay(ingestor)
    finally:
        ingestor.stop()
    return result, copilot


def replay_digest(result: ReplayResult, copilot: RCACopilot) -> str:
    """One sha256 over everything observable about a replay.

    Rendered reports and predicted labels pin the diagnosis content,
    failures pin crash containment, the stats snapshot pins the batching
    re-enactment, and the index state pins the feedback effects — if any
    of them moves across speeds (or across library changes), the digest
    moves.
    """
    stats = result.stats
    payload = {
        "renders": [report.render() for report in result.reports],
        "labels": [report.predicted_label for report in result.reports],
        "failures": {
            str(position): [type(exc).__name__, str(exc)]
            for position, exc in sorted(result.failures.items())
        },
        "stats": stats.as_dict() if stats is not None else None,
        "feedbacks": result.feedbacks,
        "index_size": len(copilot.prediction.index),
        "index_categories": sorted(copilot.prediction.index.categories()),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def replay_labels(result: ReplayResult) -> list:
    """The predicted labels in submission order (golden fixture field)."""
    return [report.predicted_label for report in result.reports]
