"""The four benchmark workloads.

Each workload builds its program state from seeded inputs (:meth:`setup`),
lets caches fill (:meth:`warm_up`), runs timed rounds of real CPU work until
the window is over (:meth:`measure`) and checks the outputs
(:meth:`verify`).  Nothing here sleeps except the open-loop generator
waiting for an alert's due time.

======================  =========  ==========================================
workload                loop       one *item* / one *round*
======================  =========  ==========================================
``burst_replay``        closed     alert / one replayed 96-alert recording
``backfill_200k``       closed     incident / one ``diagnose_many`` batch
``stream_paced``        open       alert / the whole paced window
``index_churn``         closed     entry added / two waves, the second saves
======================  =========  ==========================================
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bus import BusReplayer, Recording
from repro.core import IndexConfig, IngestConfig, PipelineConfig, RCACopilot
from repro.embedding import FastTextConfig, FastTextEmbedder
from repro.handlers import HandlerRegistry
from repro.incidents import Incident, IncidentStore
from repro.monitors import Alert
from repro.telemetry import TelemetryHub
from repro.vectordb import CompactionPolicy, ShardedVectorIndex, load_index

from . import loadgen
from .loadgen import Sizes, Traffic
from .probe import SpeedProbe, at_reference_speed

#: How many already-processed items the batch-vs-sequential check re-runs.
REFERENCE_SAMPLE = 16
#: stream_paced is flagged unsustainable beyond these (see README).
MAX_LATE_P99_MS = 50.0
MAX_BACKLOG_END = 32
FUTURE_TIMEOUT_SECONDS = 60.0
#: stream_paced samples the box's speed on the generator thread, this often,
#: and only in a gap of the schedule long enough that no alert goes out late.
PROBE_EVERY_SECONDS = 0.25
PROBE_MIN_GAP_SECONDS = 0.015


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """The process's peak resident set so far (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _labels_digest(labels: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(labels).encode("utf-8")).hexdigest()


@dataclass
class Measured:
    """What one timed window produced."""

    #: perf_counter() at the window's start and end (for the span table).
    window: Tuple[float, float] = (0.0, 0.0)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Per round: items completed, wall seconds, the box's speed while it ran
    #: (``probe.SpeedProbe``; 1.0 = reference) and process CPU seconds at
    #: reference speed.
    round_items: List[int] = field(default_factory=list)
    round_seconds: List[float] = field(default_factory=list)
    round_speed: List[float] = field(default_factory=list)
    round_scaled_cpu_seconds: List[float] = field(default_factory=list)
    #: Milliseconds from handing an item to the program (open loop: from its
    #: due time) until its result was available: as timed, and at reference
    #: speed.
    latencies_ms: List[float] = field(default_factory=list)
    scaled_latencies_ms: List[float] = field(default_factory=list)
    #: perf_counter() stamps per submitted alert, in submit order: when it
    #: was due (closed loop: when it was submitted) and when its future
    #: resolved.  The traced pass joins spans against these.
    due_at: List[float] = field(default_factory=list)
    done_at: List[Optional[float]] = field(default_factory=list)
    #: Operations attempted / failed inside the window.
    attempted: int = 0
    failed: int = 0
    #: One digest of the predicted labels per round (cross-pass comparison).
    round_labels_sha256: List[str] = field(default_factory=list)
    labelled: int = 0
    labelled_correct: int = 0
    #: Reports whose handler ran and produced diagnostic sections.
    collected: int = 0
    #: Peak RSS sampled at a fixed point of the workload's progress, where
    #: the program's state grows with the work done (None: read it at the end).
    peak_rss_mb: Optional[float] = None
    #: Workload-specific observations (lateness, backlog, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Program counters snapshotted at the window's edges.
    counters_before: Dict[str, float] = field(default_factory=dict)
    counters_after: Dict[str, float] = field(default_factory=dict)

    @property
    def items(self) -> int:
        return sum(self.round_items)

    def add_round(
        self,
        items: int,
        seconds: float,
        speed: float,
        scaled_cpu_seconds: float,
        latencies_ms: Sequence[float] = (),
    ) -> None:
        """Record one finished round and the latencies observed in it."""
        self.round_items.append(items)
        self.round_seconds.append(seconds)
        self.round_speed.append(speed)
        self.round_scaled_cpu_seconds.append(scaled_cpu_seconds)
        self.latencies_ms.extend(latencies_ms)
        self.scaled_latencies_ms.extend(
            at_reference_speed(latency, speed) for latency in latencies_ms
        )


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""
    #: Closed loops must keep the CPU busy (proof that nothing sleeps).
    closed_loop = True

    def __init__(self, seed: int, seconds: float, sizes: Sizes, tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.tracer = tracer
        self.probe = SpeedProbe()

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setup(self) -> Tuple[float, float]:
        """Run :meth:`setup`; returns its seconds as timed and at reference speed."""
        self._setup_seconds = self._setup_scaled_seconds = 0.0
        self.probe.sample()
        self._stage_started = time.perf_counter()
        self.setup()
        self._end_stage()
        return self._setup_seconds, self._setup_scaled_seconds

    def _end_stage(self) -> None:
        """A seam inside ``setup``: scale the stage just ended by the speed around it."""
        seconds = time.perf_counter() - self._stage_started
        self._setup_seconds += seconds
        self._setup_scaled_seconds += seconds * self.probe.lap()
        self._stage_started = time.perf_counter()

    def inputs_sha256(self) -> str:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def measure(self) -> Measured:
        raise NotImplementedError

    def verify(self, measured: Measured) -> Dict[str, bool]:
        """Named output checks; every False counts as a failed operation."""
        raise NotImplementedError

    def unsustainable(self, measured: Measured) -> List[str]:
        """Why an open loop's latencies should not be trusted (empty: they can)."""
        return []

    def counters(self) -> Dict[str, float]:
        """Counters the program itself keeps (caches, index, ingest)."""
        return {}

    def close(self) -> None:
        pass


# ------------------------------------------------------------------ pipeline
class _SubmitTimer:
    """Stamps every ``submit`` and the moment its future resolves.

    The harness's own latency measurement, identical in both passes.  It
    stands where the ingestor stood (the replayer drives it), forwards
    everything else untouched, and touches no program state.
    """

    def __init__(self, ingestor) -> None:
        self._ingestor = ingestor
        self.submitted_at: List[float] = []
        self.done_at: List[Optional[float]] = []
        self.futures: List[object] = []

    def submit(self, alert: Alert):
        position = len(self.submitted_at)
        self.submitted_at.append(time.perf_counter())
        self.done_at.append(None)
        future = self._ingestor.submit(alert)

        def stamp(_future, position=position) -> None:
            self.done_at[position] = time.perf_counter()

        future.add_done_callback(stamp)
        self.futures.append(future)
        return future

    def __getattr__(self, name: str):
        return getattr(self._ingestor, name)


class _PipelineWorkload(Workload):
    """Shared set-up of the workloads that run the whole ``RCACopilot``."""

    copilot: RCACopilot

    def _build_copilot(
        self,
        hub: TelemetryHub,
        history: IncidentStore,
        config: Optional[PipelineConfig] = None,
        handlers: bool = True,
    ) -> None:
        copilot = RCACopilot(hub, config=config)
        if not handlers:
            # An empty registry passed to the constructor is falsy and would
            # be swapped for the default one; empty it afterwards instead.
            copilot.registry = copilot.collection.registry = HandlerRegistry()
        copilot.prediction.embedder = FastTextEmbedder(
            FastTextConfig(max_pairs_per_epoch=self.sizes.fit_pairs_per_epoch)
        )
        self.tracer.instrument_copilot(copilot)
        copilot.index_history(history)
        self.tracer.instrument_index(copilot.prediction.index)
        self.copilot = copilot

    def counters(self) -> Dict[str, float]:
        flat: Dict[str, float] = {
            f"cache.{name}": float(value)
            for name, value in self.copilot.prediction.cache_stats.as_dict().items()
        }
        flat.update(
            {f"index.{name}": value for name, value in self.copilot.prediction.index.stats().items()}
        )
        return flat

    def _score(self, measured: Measured, labels: Sequence[str], truths: Sequence[Optional[str]]) -> None:
        measured.round_labels_sha256.append(_labels_digest(labels))
        measured.labelled += len(labels)
        measured.labelled_correct += sum(
            1 for label, truth in zip(labels, truths) if truth is not None and label == truth
        )


class _TrafficWorkload(_PipelineWorkload):
    """Pipeline workloads fed by the shared simulated-cloud traffic."""

    traffic: Traffic
    ingestor: object

    def _setup_traffic_pipeline(self) -> None:
        sizes = self.sizes
        slots = max(1, int(round(sizes.traffic_slots_per_second * self.seconds)))
        self.traffic = loadgen.cloudsim_traffic(self.seed, sizes.traffic_lead_slots, slots)
        self._end_stage()
        self.history = loadgen.history_corpus(self.seed, sizes.pipeline_history)
        self._build_copilot(self.traffic.hub, self.history)
        self._end_stage()
        self.ingestor = self.copilot.stream(IngestConfig())
        self.tracer.instrument_ingestor(self.ingestor)
        self.timer = _SubmitTimer(self.ingestor)

    def _warmup_alerts(self) -> List[Alert]:
        return self.traffic.lead_alerts[-self.sizes.warmup_alerts :]

    def inputs_sha256(self) -> str:
        digest = loadgen.InputDigest()
        digest.add_alerts(self.traffic.lead_alerts)
        digest.add_alerts(self.traffic.alerts)
        digest.add_incidents(self.history.all())
        self._digest_extra(digest)
        return digest.hexdigest()

    def _digest_extra(self, digest: loadgen.InputDigest) -> None:
        pass

    def counters(self) -> Dict[str, float]:
        flat = super().counters()
        stats = self.ingestor.stats()
        flat.update({f"ingest.{name}": value for name, value in stats.as_dict().items()})
        flat["ingest.queue_depth"] = float(self.ingestor.queue_depth)
        return flat

    def _ingest_checks(self, measured: Measured) -> Dict[str, bool]:
        before, after = measured.counters_before, measured.counters_after
        return {
            "every_future_resolved": all(stamp is not None for stamp in self.timer.done_at),
            "ingest_processed_all": after["ingest.processed"] == after["ingest.submitted"],
            "no_collect_failures": after["ingest.collect_failures"] == before["ingest.collect_failures"],
            "no_worker_errors": after["ingest.worker_errors"] == before["ingest.worker_errors"],
        }

    def close(self) -> None:
        self.ingestor.stop()


class BurstReplay(_TrafficWorkload):
    """Closed loop: flash-crowd recordings replayed back to back."""

    name = "burst_replay"

    def setup(self) -> None:
        self._setup_traffic_pipeline()
        with self.tracer.span("bus.build"):
            self.recordings = loadgen.burst_recordings(self.traffic.alerts, self.seed, self.sizes)
            self.warmup_recording = loadgen.burst_recordings(
                self._warmup_alerts(),
                self.seed,
                self.sizes,
                round_alerts=self.sizes.warmup_alerts,
                feedback_prefix="OCE-WARMUP",
            )[0]

    def _digest_extra(self, digest: loadgen.InputDigest) -> None:
        for recording in self.recordings:
            digest.add_json([[type(e).__name__, e.offset] for e in recording.events])

    def _replay(self, recording: Recording):
        with self.tracer.span("bus.replay", units=len(recording.events)):
            return BusReplayer(recording, speed=1e6).replay(
                self.timer, future_timeout=FUTURE_TIMEOUT_SECONDS
            )

    def warm_up(self) -> None:
        self._replay(self.warmup_recording)

    def measure(self) -> Measured:
        measured = Measured(counters_before=self.counters())
        self.feedback_expected: Dict[str, str] = {}
        timer = self.timer
        first_submit = len(timer.submitted_at)
        cpu_started = time.process_time()
        started = time.perf_counter()
        deadline = started + self.seconds
        round_index = 0
        self.probe.sample()
        while time.perf_counter() < deadline:
            # Past the generated traffic (a program several times faster
            # than today's) rounds wrap around and start hitting the caches.
            recording = self.recordings[round_index % len(self.recordings)]
            round_submit = len(timer.submitted_at)
            round_cpu_started = time.process_time()
            round_started = time.perf_counter()
            result = self._replay(recording)
            seconds = time.perf_counter() - round_started
            cpu_seconds = time.process_time() - round_cpu_started
            speed = self.probe.lap()
            measured.add_round(
                len(result.reports),
                seconds,
                speed,
                cpu_seconds * speed,
                [
                    (done - submitted) * 1e3
                    for submitted, done in zip(
                        timer.submitted_at[round_submit:], timer.done_at[round_submit:]
                    )
                    if done is not None
                ],
            )
            alerts = [event.alert for event in recording.alerts]
            measured.attempted += len(alerts) + result.feedbacks
            measured.failed += len(result.failures) + sum(
                1 for report in result.reports if report.prediction is None
            )
            measured.collected += sum(1 for report in result.reports if report.collection.collected)
            if not result.failures:
                self._score(
                    measured,
                    [report.predicted_label for report in result.reports],
                    [Traffic.truth(alert) for alert in alerts],
                )
            for event in recording.feedbacks:
                self.feedback_expected[event.incident.incident_id] = event.category
            round_index += 1
        ended = time.perf_counter()
        measured.window = (started, ended)
        measured.wall_seconds = ended - started
        measured.cpu_seconds = time.process_time() - cpu_started
        measured.due_at = timer.submitted_at[first_submit:]
        measured.done_at = timer.done_at[first_submit:]
        measured.counters_after = self.counters()
        return measured

    def verify(self, measured: Measured) -> Dict[str, bool]:
        index = self.copilot.prediction.index
        rounds = len(measured.round_items)
        per_round = self.sizes.burst_round_alerts
        batches = measured.counters_after["ingest.batches"] - measured.counters_before["ingest.batches"]
        checks = self._ingest_checks(measured)
        checks["every_alert_reported"] = measured.items == rounds * per_round
        # 2 ms spacing against a 50 ms latency window: only size flushes.
        checks["size_flushed_batches"] = batches == rounds * (per_round // IngestConfig().max_batch)
        checks["feedback_visible_in_index"] = all(
            (entry := index.get(incident_id)) is not None and entry.category == category
            for incident_id, category in self.feedback_expected.items()
        )
        return checks


class StreamPaced(_TrafficWorkload):
    """Open loop: a live ingestor fed one ``submit()`` at a time at a fixed rate."""

    name = "stream_paced"
    closed_loop = False

    def setup(self) -> None:
        self._setup_traffic_pipeline()
        self.schedule = loadgen.paced_schedule(self.seed, self.sizes.stream_rate, self.seconds)
        self.alerts = [
            self.traffic.alerts[position % len(self.traffic.alerts)]
            for position in range(len(self.schedule))
        ]

    def _digest_extra(self, digest: loadgen.InputDigest) -> None:
        digest.add_json(self.schedule)

    def warm_up(self) -> None:
        self.ingestor.start()
        futures = [self.timer.submit(alert) for alert in self._warmup_alerts()]
        for future in futures:
            future.result(timeout=FUTURE_TIMEOUT_SECONDS)

    def measure(self) -> Measured:
        measured = Measured(counters_before=self.counters())
        timer = self.timer
        probe = self.probe
        first_submit = len(timer.submitted_at)
        backlog: List[int] = []
        #: Per speed sample: when, the speed, the program's CPU so far (the
        #: probe ran on this process's clock too and is not the program's).
        marks: List[Tuple[float, float, float]] = []

        def sample_speed() -> None:
            speed = probe.sample()
            marks.append((time.perf_counter(), speed, time.process_time() - probe.busy_seconds))

        sample_speed()
        started = time.perf_counter()
        for due, alert in zip(self.schedule, self.alerts):
            now = time.perf_counter()
            if (
                started + due - now > PROBE_MIN_GAP_SECONDS
                and now - marks[-1][0] > PROBE_EVERY_SECONDS
            ):
                sample_speed()  # in a gap of the schedule long enough to hold it
            wait = started + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)  # the generator pacing itself, not the program
            timer.submit(alert)
            backlog.append(self.ingestor.queue_depth)
        last_submit = time.perf_counter()
        reports = []
        for future in timer.futures[first_submit:]:
            measured.attempted += 1
            try:
                report = future.result(timeout=FUTURE_TIMEOUT_SECONDS)
            except Exception:  # noqa: BLE001 - the failure is the datum
                measured.failed += 1
                continue
            reports.append(report)
            if report.prediction is None:
                measured.failed += 1
        sample_speed()
        submitted = timer.submitted_at[first_submit:]
        done = [stamp for stamp in timer.done_at[first_submit:] if stamp is not None]
        ended = max(done) if done else time.perf_counter()
        measured.window = (started, ended)
        measured.wall_seconds = ended - started
        measured.due_at = [started + due for due in self.schedule]
        measured.done_at = timer.done_at[first_submit:]
        # Each alert is scaled by the box's speed when it completed; the
        # flush window it may have waited out is a timer, not the processor.
        sample_times, speeds, program_cpu = zip(*marks)
        timer_ms = IngestConfig().max_latency_seconds * 1e3
        for due_at, done_at in zip(measured.due_at, measured.done_at):
            if done_at is not None:
                latency = (done_at - due_at) * 1e3
                speed = float(np.interp(done_at, sample_times, speeds))
                measured.latencies_ms.append(latency)
                measured.scaled_latencies_ms.append(at_reference_speed(latency, speed, timer_ms))
        # CPU likewise, interval by interval between samples.
        measured.cpu_seconds = program_cpu[-1] - program_cpu[0]
        measured.add_round(
            len(reports),
            measured.wall_seconds,
            statistics.median(speeds),
            sum(
                (cpu - previous_cpu) * (speed + previous_speed) / 2.0
                for previous_cpu, cpu, previous_speed, speed in zip(
                    program_cpu, program_cpu[1:], speeds, speeds[1:]
                )
            ),
        )
        measured.collected = sum(1 for report in reports if report.collection.collected)
        late_ms = [(stamp - due) * 1e3 for due, stamp in zip(measured.due_at, submitted)]
        measured.extra = {
            "offered_per_s": len(self.schedule) / self.seconds,
            "late_p99_ms": percentile(late_ms, 99),
            "backlog_end": float(backlog[-1]),
            "backlog_max": float(max(backlog)),
            "drain_seconds": ended - last_submit,
        }
        if len(reports) == len(self.alerts):
            self.labels = [report.predicted_label for report in reports]
            self._score(measured, self.labels, [Traffic.truth(alert) for alert in self.alerts])
        measured.counters_after = self.counters()
        return measured

    def falls_behind(self, measured: Measured) -> List[str]:
        """Why the program did not keep up with the offered rate (empty: it did)."""
        extra = measured.extra
        reasons = []
        # Equivalent to achieved >= 0.95 x offered on a long window, without
        # failing a short one for the single batch that drains after it.
        if extra["drain_seconds"] > 0.05 * self.seconds + 0.5:
            reasons.append(f"took {extra['drain_seconds']:.2f} s to drain after the last submit")
        if extra["backlog_end"] > MAX_BACKLOG_END:
            reasons.append(f"{extra['backlog_end']:.0f} alerts still queued at the last submit")
        return reasons

    def unsustainable(self, measured: Measured) -> List[str]:
        """Why this run's latencies should not be trusted (empty: they can).

        Falling behind fails the run.  A late generator is only flagged: it
        shares the interpreter lock with the ingest worker, so on a slowed
        box its tail lateness says more about the box than about the program.
        """
        reasons = self.falls_behind(measured)
        if measured.extra["late_p99_ms"] > MAX_LATE_P99_MS:
            reasons.append(f"generator ran {measured.extra['late_p99_ms']:.1f} ms late at p99")
        return reasons

    def verify(self, measured: Measured) -> Dict[str, bool]:
        checks = self._ingest_checks(measured)
        checks["keeps_up"] = not self.falls_behind(measured)
        # No feedback runs here, so a label cannot depend on which batch its
        # alert rode in: the scalar path must reproduce the streamed labels.
        self.ingestor.stop()
        sample = random.Random(0).sample(range(len(self.alerts)), min(REFERENCE_SAMPLE, len(self.alerts)))
        labels = getattr(self, "labels", None)
        checks["batch_equals_sequential"] = labels is not None and all(
            self.copilot.observe(self.alerts[position]).predicted_label == labels[position]
            for position in sample
        )
        return checks


class Backfill(_PipelineWorkload):
    """Closed loop: re-triage of history over a padded 200k-entry index."""

    name = "backfill_200k"

    def setup(self) -> None:
        self.inputs = loadgen.BackfillInputs(self.seed, self.sizes)
        self._end_stage()
        self._build_copilot(
            TelemetryHub(),
            self.inputs.history,
            config=PipelineConfig(index=IndexConfig(window_days=7.0)),
            handlers=False,
        )
        self._end_stage()
        padding = self.inputs.padding
        self.copilot.prediction.index.add_many(
            *padding, texts=["padding entry"] * len(padding.ids)
        )

    def inputs_sha256(self) -> str:
        digest = loadgen.InputDigest()
        digest.add_incidents(self.inputs.sources)
        digest.add_array(self.inputs.padding.vectors)
        digest.add_json([self.inputs.padding.days, self.inputs.padding.categories])
        return digest.hexdigest()

    def warm_up(self) -> None:
        # One pass over every distinct incident: the timed window then runs
        # with the summary and embedding caches full, as bulk re-triage does.
        for _ in range(-(-len(self.inputs.sources) // self.sizes.backfill_batch)):
            self.copilot.diagnose_many(self.inputs.next_batch()[1])

    def measure(self) -> Measured:
        measured = Measured(counters_before=self.counters())
        self.reference: List[Tuple[Incident, str]] = []
        self.handlers_matched = 0
        cpu_started = time.process_time()
        started = time.perf_counter()
        deadline = started + self.seconds
        self.probe.sample()
        while time.perf_counter() < deadline:
            sources, queries = self.inputs.next_batch()
            batch_cpu_started = time.process_time()
            batch_started = time.perf_counter()
            reports = self.copilot.diagnose_many(queries)
            seconds = time.perf_counter() - batch_started
            cpu_seconds = time.process_time() - batch_cpu_started
            speed = self.probe.lap()
            measured.add_round(
                len(reports), seconds, speed, cpu_seconds * speed, [seconds * 1e3] * len(reports)
            )
            measured.attempted += len(queries)
            measured.failed += len(queries) - len(reports) + sum(
                1 for report in reports if report.prediction is None
            )
            measured.collected += sum(1 for report in reports if report.collection.collected)
            self.handlers_matched += sum(
                1 for report in reports if report.collection.matched_handler is not None
            )
            labels = [report.predicted_label for report in reports]
            self._score(measured, labels, [source.category for source in sources])
            if len(self.reference) < REFERENCE_SAMPLE:
                self.reference.append((sources[0], labels[0]))
        ended = time.perf_counter()
        measured.window = (started, ended)
        measured.wall_seconds = ended - started
        measured.cpu_seconds = time.process_time() - cpu_started
        measured.counters_after = self.counters()
        return measured

    def verify(self, measured: Measured) -> Dict[str, bool]:
        def sequential(source: Incident) -> str:
            query = self.inputs.reissue(source, f"REF-{source.incident_id}")
            return self.copilot.diagnose(query).predicted_label

        expected_entries = len(self.inputs.sources) + len(self.inputs.padding.ids)
        return {
            "index_holds_every_entry": len(self.copilot.prediction.index) == expected_entries,
            "handlers_bypassed": self.handlers_matched == 0,
            # The index is static here, so the scalar path must reproduce
            # what the batches predicted.
            "batch_equals_sequential": all(
                sequential(source) == label for source, label in self.reference
            ),
        }

    def close(self) -> None:
        self.copilot.prediction.index.close()


# --------------------------------------------------------------- index churn
@dataclass
class _ChurnRound:
    """What the two waves of one index_churn round add up to."""

    seconds: float = 0.0
    cpu_seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    operations: int = 0
    empty_results: int = 0


class IndexChurn(Workload):
    """Closed loop straight on the ``VectorIndex`` protocol: writes beside reads."""

    name = "index_churn"

    def __init__(self, seed: int, seconds: float, sizes: Sizes, tracer, scratch: str) -> None:
        super().__init__(seed, seconds, sizes, tracer)
        self.snapshot_dir = os.path.join(scratch, f"index_churn_{os.getpid()}")

    def _new_index(self) -> ShardedVectorIndex:
        return ShardedVectorIndex(window_days=7.0, compaction=CompactionPolicy(auto=True))

    def setup(self) -> None:
        self.inputs = loadgen.ChurnInputs(self.seed, self.sizes)
        self._end_stage()
        self.index = self._new_index()
        self.tracer.instrument_index(self.index)
        self.index.add_many(*self.inputs.preload)
        self.next_wave = 0
        self.relabelled: Dict[str, str] = {}

    def inputs_sha256(self) -> str:
        digest = loadgen.InputDigest()
        digest.add_array(self.inputs.preload.vectors)
        digest.add_json([self.inputs.preload.days, self.inputs.preload.categories])
        first = self.inputs.wave(0)
        digest.add_array(first.entries.vectors)
        digest.add_json([first.relabel_ids, first.relabel_categories])
        return digest.hexdigest()

    def counters(self) -> Dict[str, float]:
        return {f"index.{name}": value for name, value in self.index.stats().items()}

    def _wave(self, save: bool, round_: Optional["_ChurnRound"] = None) -> None:
        """Run one wave, adding its times (input generation excluded) to ``round_``."""
        wave = self.inputs.wave(self.next_wave)
        self.next_wave += 1
        cpu_started = time.process_time()
        started = time.perf_counter()
        self.index.add_many(*wave.entries)
        for incident_id, category in zip(wave.relabel_ids, wave.relabel_categories):
            self.index.update_category(incident_id, category)
            self.relabelled[incident_id] = category
        for queries in wave.query_batches:
            batch_started = time.perf_counter()
            neighbours = self.index.search_many(queries, wave.query_days)
            if round_ is not None:
                milliseconds = (time.perf_counter() - batch_started) * 1e3
                round_.latencies_ms.extend([milliseconds] * len(queries))
                round_.empty_results += sum(1 for found in neighbours if not found)
        if save:
            self.index.save(self.snapshot_dir)
        if round_ is not None:
            round_.seconds += time.perf_counter() - started
            round_.cpu_seconds += time.process_time() - cpu_started
            round_.operations += (
                len(wave.entries.ids)
                + len(wave.relabel_ids)
                + sum(len(queries) for queries in wave.query_batches)
            )

    def warm_up(self) -> None:
        # One untimed round: spins up the scoring pool and creates the
        # snapshot files, both of which only the first round pays for.
        self._wave(save=False)
        self._wave(save=True)

    def measure(self) -> Measured:
        measured = Measured(counters_before=self.counters())
        cpu_started = time.process_time()
        started = time.perf_counter()
        deadline = started + self.seconds
        self.probe.sample()
        while time.perf_counter() < deadline:
            round_ = _ChurnRound()
            self._wave(save=False, round_=round_)
            self._wave(save=True, round_=round_)
            speed = self.probe.lap()
            measured.add_round(
                2 * self.sizes.churn_wave_entries,
                round_.seconds,
                speed,
                round_.cpu_seconds * speed,
                round_.latencies_ms,
            )
            measured.attempted += round_.operations
            measured.failed += round_.empty_results
            if len(measured.round_items) == self.sizes.churn_rss_rounds:
                measured.peak_rss_mb = peak_rss_mb()
        ended = time.perf_counter()
        measured.window = (started, ended)
        measured.wall_seconds = ended - started
        measured.cpu_seconds = time.process_time() - cpu_started
        measured.extra["snapshot_bytes"] = float(
            sum(entry.stat().st_size for entry in os.scandir(self.snapshot_dir))
        )
        measured.counters_after = self.counters()
        return measured

    def verify(self, measured: Measured) -> Dict[str, bool]:
        # Every round ends on a save, so the snapshot is the live index.
        with self.tracer.span("vectordb.load"):
            reloaded = load_index(self.snapshot_dir, compaction=CompactionPolicy(auto=True))
        try:
            probe = self.inputs.wave(self.next_wave - 1)
            queries = probe.query_batches[0]
            live = self.index.search_many(queries, probe.query_days)
            restored = reloaded.search_many(queries, probe.query_days)
            sample = list(self.relabelled.items())[-REFERENCE_SAMPLE:]
            return {
                "index_holds_every_entry": len(self.index) == self.inputs.entries_before(self.next_wave),
                "relabels_visible": all(
                    self.index.get(incident_id).category == category
                    for incident_id, category in sample
                ),
                "reload_parity": [
                    [neighbour.incident_id for neighbour in found] for found in live
                ]
                == [[neighbour.incident_id for neighbour in found] for found in restored],
            }
        finally:
            reloaded.close()

    def close(self) -> None:
        self.index.close()
        shutil.rmtree(self.snapshot_dir, ignore_errors=True)


WORKLOADS = {
    workload.name: workload
    for workload in (BurstReplay, Backfill, StreamPaced, IndexChurn)
}


def build(name: str, seed: int, seconds: float, sizes: Sizes, tracer, scratch: str) -> Workload:
    """Construct a workload by its ``BENCHMARK.json`` name."""
    workload_class = WORKLOADS[name]
    if workload_class is IndexChurn:
        return IndexChurn(seed, seconds, sizes, tracer, scratch)
    return workload_class(seed, seconds, sizes, tracer)
