"""Shared builders for the streaming-concurrency test suites.

Everything here is deterministic by construction so the serial/pooled
parity suites can compare runs value-for-value:

* the **flaky** classifier fails based on the alert *message* (never on
  timing or global order), so the same alert stream produces the same
  failures whether collection ran serially or on a thread pool;
* the **slow** classifier sleeps a fixed couple of milliseconds, simulating
  the I/O-bound telemetry pulls that make a collection pool worthwhile;
* both classifiers are registered by name at import time, so the handlers
  stay JSON-serializable like authored ones.

Import this module with a plain ``import streamtest_utils`` — pytest puts
each test file's directory on ``sys.path``.
"""

from __future__ import annotations

import copy
import functools
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.clock import VirtualClock

from repro.core import (
    CollectionConfig,
    IndexConfig,
    IngestConfig,
    PipelineConfig,
    RCACopilot,
)
from repro.core.pipeline import DiagnosisReport
from repro.datagen import generate_corpus
from repro.embedding import FastTextConfig, FastTextEmbedder
from repro.handlers import (
    HandlerRegistry,
    MitigationAction,
    QueryAction,
    linear_handler,
    register_classifier,
)
from repro.llm import SimulatedLLM
from repro.monitors import Alert, AlertScope
from repro.telemetry import TelemetryHub

class FakeClock(VirtualClock):
    """Step-controlled deterministic clock for the streaming test suites.

    The implementation lives in :class:`repro.core.clock.VirtualClock`
    (promoted there so the record/replay bus and benchmarks can drive the
    same clock); this alias keeps the test suites' historical name.
    """


class GateModel:
    """A :class:`SimulatedLLM` whose completions can block on an event.

    The stop-drain tests use it to hold a prediction in flight at a known
    point: ``close()`` arms the gate, the next completion sets ``entered``
    (so the test knows the prediction phase has started) and parks until
    ``open()``.  The gate starts open so history indexing and summary
    warming run unimpeded.  Waits are bounded by a real-time hang guard.
    """

    def __init__(self, name: str = "gated-simulated-gpt-4") -> None:
        self._inner = SimulatedLLM(name=name)
        self.name = name
        self.noise = 0.0  # keeps ChainOfThoughtPredictor._deterministic() true
        self.entered = threading.Event()
        self._release = threading.Event()
        self._release.set()

    def close(self) -> None:
        """Arm the gate: subsequent completions block until :meth:`open`."""
        self.entered.clear()
        self._release.clear()

    def open(self) -> None:
        """Release every parked completion and let new ones through."""
        self._release.set()

    def _wait(self) -> None:
        if not self._release.is_set():
            self.entered.set()
            if not self._release.wait(timeout=30.0):
                raise TimeoutError("GateModel gate never released")

    def complete(self, messages, temperature: float = 0.0):
        self._wait()
        return self._inner.complete(messages, temperature=temperature)

    def complete_many(self, conversations, temperature: float = 0.0):
        self._wait()
        return self._inner.complete_many(conversations, temperature=temperature)


class FittedEmbedder:
    """A fitted embedder with ``fit`` taken away: ``index_history`` embeds
    with it as it is instead of training it again."""

    def __init__(self, inner):
        self.inner = inner

    def embed_many(self, texts):
        return self.inner.embed_many(texts)


#: Alert messages containing this marker make the flaky classifier raise.
FLAKY_MARKER = "flaky-telemetry"

#: Alert types served by :func:`stream_test_registry`.
SLEEPY_TYPE = "StreamSleepy"
FLAKY_TYPE = "StreamFlaky"
#: Clock-driven collect-bound alerts: their handler advances a FakeClock
#: instead of really sleeping, so "I/O time" is exact and virtual.
BUSY_TYPE = "StreamBusy"
#: Idle alerts: a handler that does plain hub queries and advances nothing,
#: so under a FakeClock the batch measures exactly zero collect seconds.
IDLE_TYPE = "StreamIdle"

#: Mutable hookup of the virtual-I/O classifier: tests install a FakeClock
#: (and per-call virtual duration) here; None leaves the classifier inert.
#: With ``park`` set the call *waits* on the clock instead of advancing it:
#: the calling worker stays busy inside the handler until the test advances
#: virtual time past the duration (``wait_for_sleepers`` says when it is in).
#: A wake (every ``submit`` issues one) unparks it, so it parks again until
#: the clock reaches the end of its I/O.
VIRTUAL_IO: Dict[str, Optional[object]] = {
    "clock": None,
    "seconds": 0.05,
    "park": False,
}


@register_classifier("stream_test_virtual_io")
def virtual_io_classifier(context, table) -> str:
    """Spend virtual time on the installed FakeClock: simulated I/O wait."""
    clock = VIRTUAL_IO["clock"]
    if clock is None:
        return "default"
    if not VIRTUAL_IO["park"]:
        clock.advance(VIRTUAL_IO["seconds"])
        return "default"
    done_at = clock.monotonic() + VIRTUAL_IO["seconds"]
    while clock.monotonic() < done_at:
        clock.sleep(done_at - clock.monotonic())
    return "default"


@register_classifier("stream_test_flaky")
def flaky_classifier(context, table) -> str:
    """Raise iff the alert message carries the flaky marker (deterministic)."""
    if FLAKY_MARKER in context.incident.alert_message:
        raise RuntimeError(
            f"simulated telemetry outage for {context.incident.incident_id}"
        )
    return "default"


@register_classifier("stream_test_slow")
def slow_classifier(context, table) -> str:
    """Sleep-simulate an I/O-bound telemetry pull."""
    time.sleep(0.002)
    return "default"


def stream_test_registry() -> HandlerRegistry:
    """Two serializable handlers: one slow (I/O-bound), one flaky."""
    registry = HandlerRegistry()
    registry.register(
        linear_handler(
            SLEEPY_TYPE,
            "stream-sleepy",
            [
                QueryAction(
                    "slow_metrics",
                    source="metrics",
                    metric_names=["stream_m1"],
                    classify=slow_classifier,
                ),
                QueryAction("recent_events", source="events"),
                MitigationAction("suggest_restart", "Restart the sleepy component"),
            ],
        )
    )
    registry.register(
        linear_handler(
            FLAKY_TYPE,
            "stream-flaky",
            [
                QueryAction("maybe_fail", source="error_logs", classify=flaky_classifier),
                QueryAction("flaky_metrics", source="metrics", metric_names=["stream_m1"]),
                MitigationAction("suggest_patch", "Patch the flaky prober"),
            ],
        )
    )
    registry.register(
        linear_handler(
            BUSY_TYPE,
            "stream-busy",
            [
                QueryAction(
                    "virtual_probe",
                    source="metrics",
                    metric_names=["stream_m1"],
                    classify=virtual_io_classifier,
                ),
                MitigationAction("suggest_scale", "Scale out the busy component"),
            ],
        )
    )
    registry.register(
        linear_handler(
            IDLE_TYPE,
            "stream-idle",
            [
                QueryAction("idle_events", source="events"),
            ],
        )
    )
    return registry


def make_stream_alert(
    index: int, alert_type: str = SLEEPY_TYPE, flaky: bool = False
) -> Alert:
    """A deterministic synthetic alert; ``flaky`` plants the failure marker."""
    message = f"synthetic stream alert {index}"
    if flaky:
        message = f"{message} {FLAKY_MARKER}"
    return Alert(
        alert_id=f"AL-STREAM-{index:05d}",
        alert_type=alert_type,
        scope=AlertScope.FOREST,
        timestamp=3600.0 + 17.0 * index,
        machine="",
        forest="forest-01",
        message=message,
        severity=3,
    )


def seed_hub(hub: TelemetryHub) -> None:
    """Write a fixed slab of telemetry inside the test alerts' windows."""
    for step in range(4):
        timestamp = 3000.0 + 120.0 * step
        for machine, value in (("EXCH-01", 40.0 + step), ("EXCH-02", 55.0 - step)):
            hub.emit_metric("stream_m1", machine, timestamp, value, unit="count")
        hub.emit_log(
            timestamp,
            "error",
            "Transport",
            "EXCH-01",
            f"WinSock error 10055 while probing endpoint {step}",
        )


def hub_state(hub: TelemetryHub) -> Tuple:
    """What any write into ``hub`` would change: metric names, log records
    and every store's write counter."""
    stores = (hub.metrics, hub.logs, hub.events, hub.traces)
    return (
        hub.metrics.metric_names(),
        list(hub.logs),
        tuple(store.writes for store in stores),
    )


def build_stream_copilot(
    strict: bool = True,
    wall_budget: Optional[float] = None,
    registry: Optional[HandlerRegistry] = None,
    with_history: bool = True,
    model: Optional[object] = None,
) -> RCACopilot:
    """A small indexed copilot over the stream-test registry and seeded hub.

    ``model`` swaps the chat model (e.g. a :class:`GateModel` whose
    completions block on an event); the default is a fresh
    :class:`SimulatedLLM`.  ``with_history`` indexes :func:`stream_history`
    with a copy of the process-wide fitted model (no fit per build).
    """
    config = PipelineConfig(
        collection=CollectionConfig(strict=strict, handler_wall_budget_seconds=wall_budget),
        index=IndexConfig(window_days=20.0),
    )
    hub = TelemetryHub()
    seed_hub(hub)
    copilot = RCACopilot(
        hub,
        registry=registry if registry is not None else stream_test_registry(),
        model=model if model is not None else SimulatedLLM(),
        config=config,
    )
    if with_history:
        copilot.prediction.embedder = FittedEmbedder(copy.deepcopy(_history_model()))
        copilot.index_history(stream_history())
    return copilot


def stream_history():
    """The labelled corpus :func:`build_stream_copilot` indexes."""
    return generate_corpus(
        total_incidents=40, total_categories=12, seed=11, duration_days=60.0
    )


@functools.lru_cache(maxsize=None)
def _history_model() -> FastTextEmbedder:
    """The default-size FastText model fitted on :func:`stream_history`, once
    per process, on the texts ``PredictionStage.index_history`` fits on.

    Builders hand each copilot a deep copy: the fit was nearly the whole cost
    of a build, and the copy embeds exactly as a fresh fit would.
    """
    return FastTextEmbedder(FastTextConfig()).fit(
        [i.diagnostic_info() or i.alert_info() for i in stream_history().labelled()]
    )


def ingest_config(
    collect_workers: Optional[int],
    max_batch: int = 64,
    pipeline_depth: int = 1,
) -> IngestConfig:
    """An IngestConfig tuned for deterministic manual-flush tests."""
    return IngestConfig(
        max_batch=max_batch,
        max_latency_seconds=5.0,
        collect_workers=collect_workers,
        pipeline_depth=pipeline_depth,
    )


def run_waves_behind_a_busy_worker(ingestor, clock, arrivals: int, submit=None) -> None:
    """Hold a live worker busy on a FakeClock while ``arrivals`` alerts queue up.

    The first (``BUSY_TYPE``) alert's handler parks in 50 ms of virtual I/O;
    with the worker inside it, ``arrivals`` idle alerts are submitted
    (``submit(alert, position)``, default ``ingestor.submit``), the I/O is
    completed by advancing the clock, and every future is awaited.
    Returns with the worker parked on the empty queue again — all stats
    folded — and virtual time at exactly 0.05.  Zero real sleeps.
    """
    submit = submit or (lambda alert, position: ingestor.submit(alert))
    VIRTUAL_IO.update(clock=clock, seconds=0.05, park=True)
    try:
        futures = [submit(make_stream_alert(0, BUSY_TYPE), 0)]
        ingestor.start()
        clock.wait_for_sleepers(1)  # the worker is inside the handler
        futures += [
            submit(make_stream_alert(position, IDLE_TYPE), position)
            for position in range(1, arrivals + 1)
        ]
        assert ingestor.queue_depth == arrivals and not futures[0].done()
        clock.advance(0.05)  # the I/O completes
        for future in futures:
            assert future.result(timeout=30.0).incident.incident_id
        clock.wait_for_sleepers(1)
    finally:
        VIRTUAL_IO.update(clock=None, park=False)


def record_flush_sizes(ingestor) -> List[int]:
    """A list that fills with the size of every wave ``ingestor`` collects.

    Wraps the ingestor's ``CollectionPool.run``, which each wave calls once
    with its alerts (cancelled ones already dropped); install it before the
    first wave.
    """
    sizes: List[int] = []
    pool = ingestor._collect_pool  # noqa: SLF001 - a test-side recorder
    run = pool.run

    def recording_run(alerts):
        sizes.append(len(alerts))
        return run(alerts)

    pool.run = recording_run
    return sizes


def report_fingerprint(report: DiagnosisReport) -> Tuple:
    """Everything deterministic about a report (timings excluded)."""
    execution = report.collection.execution
    return (
        report.incident.incident_id,
        report.incident.alert_type,
        report.incident.alert_message,
        report.collection.matched_handler,
        execution is not None,
        tuple(step.node_id for step in execution.steps) if execution else (),
        tuple(sorted(report.incident.action_output.items())),
        report.incident.diagnostic.render() if report.incident.diagnostic else "",
        tuple(execution.mitigations) if execution else (),
        report.predicted_label,
        report.explanation,
        tuple(n.incident_id for n in (report.prediction.neighbors if report.prediction else [])),
    )


def failure_fingerprint(exc: BaseException) -> Tuple[str, str]:
    """Exception identity that survives the process boundary: (type, text)."""
    return (type(exc).__name__, str(exc))


def index_state(copilot: RCACopilot, incident_ids: List[str]) -> Tuple:
    """Deterministic snapshot of the live index after feedback."""
    store = copilot.prediction.index
    return (
        len(store),
        tuple(
            (incident_id, store.get(incident_id).category if incident_id in store else None)
            for incident_id in incident_ids
        ),
    )


def drain_futures(futures) -> Tuple[Dict[int, Tuple], Dict[int, Tuple[str, str]]]:
    """Split resolved futures into report fingerprints and failure fingerprints."""
    reports: Dict[int, Tuple] = {}
    failures: Dict[int, Tuple[str, str]] = {}
    for position, future in enumerate(futures):
        try:
            reports[position] = report_fingerprint(future.result(timeout=60.0))
        except Exception as exc:  # noqa: BLE001 - the failure is the datum
            failures[position] = failure_fingerprint(exc)
    return reports, failures
