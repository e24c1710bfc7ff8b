"""Seeded input generation for the benchmark workloads.

The seed reaches this module and nothing else: the program under test only
ever receives the alerts, incidents, recordings, vectors and schedules built
here.  The same ``(seed, seconds, sizes)`` always yields byte-identical
inputs (``inputs_sha256`` proves it per run); a different seed yields
different inputs of the same shape, so metric values stay comparable
across seeds.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.bus import AlertEvent, FeedbackEvent, Recording, build_recording
from repro.bus.corpora import CATEGORY_OF_ALERT_TYPE
from repro.cloudsim import TransportService
from repro.cloudsim.scenarios import TABLE1_SCENARIOS
from repro.datagen import generate_corpus
from repro.incidents import Incident, IncidentStore
from repro.monitors import Alert, AlertRouter
from repro.telemetry import TelemetryHub

#: One monitor-evaluation slot of simulated time, also the router's dedup
#: window: a flash crowd *is* near-duplicate alerts, so they must reach the bus.
SLOT_SECONDS = 120.0
#: Fault injections per slot (random Table-1 category, random forest).
INJECTIONS_PER_SLOT = 3
#: Norm of FastText document embeddings (``FastTextConfig.document_norm``);
#: padding vectors are scaled to it so they compete with real entries.
VECTOR_NORM = 6.0
VECTOR_DIM = 64


@dataclass(frozen=True)
class Sizes:
    """Every input size of the four workloads, fixed per preset.

    ``FULL`` is what ``BENCHMARK.json`` measures; ``SMOKE`` exists so the
    benchmark's own tests can run every code path in seconds (results are
    tagged non-comparable).
    """

    #: Leading traffic slots whose alerts only feed the warm-up: the
    #: handlers look back 3600 s, so collection cost is still ramping up
    #: while the simulated hub's first hour fills.
    traffic_lead_slots: int = 30
    #: Measured traffic slots generated per second of timed window
    #: (~16 alerts per slot; 30 keeps alerts distinct up to ~480 alerts/s).
    traffic_slots_per_second: int = 30
    #: (incidents, categories, days) of the labelled history the pipeline
    #: workloads index.
    pipeline_history: tuple = (80, 30, 180.0)
    #: ``FastTextConfig.max_pairs_per_epoch`` for every workload that fits
    #: the embedder.  The library default (400k) makes one fit ~10 s, which
    #: would not leave room for three timed set-ups per run.
    fit_pairs_per_epoch: int = 20_000
    warmup_alerts: int = 32
    #: burst_replay: alerts per replayed recording (6 size-flushed batches).
    burst_round_alerts: int = 96
    burst_spacing_seconds: float = 0.002
    burst_feedback_fraction: float = 0.2
    burst_feedback_delay_seconds: float = 0.040
    #: stream_paced: offered Poisson rate, alerts per second (~30% busy).  At
    #: 30/s a batch takes longer to triage than the 50 ms flush window, the
    #: next batch grows with it, and p50 latency swings 1.8x as far as the
    #: box's speed does (28% spread over ten seeds); at 20/s the flush timer
    #: cuts most batches and latency follows service time less than 1:1.
    stream_rate: float = 20.0
    #: backfill_200k: history, random padding entries, query batch size.
    backfill_history: tuple = (160, 45, 364.0)
    backfill_pad_entries: int = 200_000
    backfill_batch: int = 32
    pad_categories: int = 120
    #: index_churn: preload, then rounds of two waves (the second one saves).
    #: Each wave appends the next slice of the timeline at the density the
    #: preload has (2,000 entries a day: weekly shards outgrow the 8,192-entry
    #: split threshold, so compaction keeps running), which keeps the hot
    #: head the live queries scan the same size from the first wave on.
    churn_preload_entries: int = 100_000
    churn_preload_days: float = 50.0
    churn_wave_entries: int = 3_072
    churn_wave_relabels: int = 256
    churn_wave_search_batches: int = 6
    churn_search_batch: int = 16
    #: Peak RSS is read when this many timed rounds are done, so a faster
    #: program, whose index grows further in the window, is not charged for it.
    churn_rss_rounds: int = 8


FULL = Sizes()
SMOKE = Sizes(
    traffic_lead_slots=30,
    fit_pairs_per_epoch=1_500,
    backfill_pad_entries=4_000,
    churn_preload_entries=8_000,
    churn_preload_days=28.0,
    churn_wave_entries=256,
    churn_wave_relabels=32,
    churn_wave_search_batches=2,
    churn_rss_rounds=2,
)


# ------------------------------------------------------------------- digests
class InputDigest:
    """Incremental SHA-256 over a workload's generated inputs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add_json(self, value: object) -> None:
        self._hash.update(
            json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
        )

    def add_alerts(self, alerts: Sequence[Alert]) -> None:
        for alert in alerts:
            self.add_json(alert.to_dict())

    def add_incidents(self, incidents: Sequence[Incident]) -> None:
        for incident in incidents:
            self.add_json(
                [
                    incident.incident_id,
                    incident.created_at,
                    incident.category,
                    incident.alert_info(),
                    incident.diagnostic_info(),
                ]
            )

    def add_array(self, array: np.ndarray) -> None:
        self._hash.update(np.ascontiguousarray(array).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# ------------------------------------------------------------------- traffic
@dataclass
class Traffic:
    """Alerts raised by one simulated deployment, with the hub they query."""

    hub: TelemetryHub
    #: Alerts of the leading slots (warm-up material only).
    lead_alerts: List[Alert]
    #: Alerts of the measured slots, in firing order.
    alerts: List[Alert]

    @staticmethod
    def truth(alert: Alert) -> Optional[str]:
        """Ground-truth category of an alert: what presents with its type."""
        return CATEGORY_OF_ALERT_TYPE.get(alert.alert_type)


def cloudsim_traffic(seed: int, lead_slots: int, slots: int) -> Traffic:
    """Run the simulated Transport service and collect the alerts it raises.

    The hub the simulation filled is the one the handlers later query, so
    collection does real log/metric/trace/event lookups.
    """
    service = TransportService(seed=seed)
    service.monitors.router = AlertRouter(dedup_window=SLOT_SECONDS)
    service.warm_up(hours=0.25)
    rng = random.Random(seed * 6133 + 7)
    categories = [scenario.category for scenario in TABLE1_SCENARIOS]
    forests = [forest.name for forest in service.topology.forests]
    lead: List[Alert] = []
    measured: List[Alert] = []
    for slot in range(lead_slots + slots):
        for _ in range(INJECTIONS_PER_SLOT):
            service.inject(rng.choice(categories), forest=rng.choice(forests))
        (lead if slot < lead_slots else measured).extend(service.advance(SLOT_SECONDS))
    return Traffic(hub=service.hub, lead_alerts=lead, alerts=measured)


def history_corpus(seed: int, shape: tuple) -> IncidentStore:
    """The labelled historical incidents a workload indexes."""
    incidents, categories, days = shape
    return generate_corpus(incidents, categories, seed=seed, duration_days=days)


def burst_recordings(
    alerts: Sequence[Alert],
    seed: int,
    sizes: Sizes,
    round_alerts: Optional[int] = None,
    feedback_prefix: str = "OCE",
) -> List[Recording]:
    """Pack alerts into flash-crowd recordings, one per replay round.

    Alerts are spaced far tighter than triage drains them; a seeded share is
    followed by an OCE feedback event carrying the ground-truth category, so
    replays exercise the feedback-visible-to-next-batch path.
    """
    rng = random.Random(seed * 7919 + 13)
    per_round = round_alerts or sizes.burst_round_alerts
    recordings: List[Recording] = []
    feedback_serial = 0
    for start in range(0, len(alerts) - per_round + 1, per_round):
        events: List[object] = []
        for position, alert in enumerate(alerts[start : start + per_round]):
            offset = round(position * sizes.burst_spacing_seconds, 6)
            events.append(AlertEvent(offset=offset, alert=alert))
            category = Traffic.truth(alert)
            if rng.random() < sizes.burst_feedback_fraction and category is not None:
                feedback_serial += 1
                events.append(
                    FeedbackEvent(
                        offset=round(offset + sizes.burst_feedback_delay_seconds, 6),
                        incident=Incident.from_alert(
                            f"{feedback_prefix}-{feedback_serial:06d}", alert
                        ),
                        category=category,
                    )
                )
        recordings.append(build_recording(events, meta={"round": len(recordings)}))
    return recordings


def paced_schedule(seed: int, rate: float, seconds: float) -> List[float]:
    """Due times (seconds from the window start) of Poisson arrivals.

    A Poisson process conditioned on its count: the arrival times are sorted
    uniforms, so every seed offers exactly ``rate x seconds`` alerts and the
    achieved rate is comparable across seeds.
    """
    rng = random.Random(seed * 104729 + 31)
    count = max(1, int(round(rate * seconds)))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


# ------------------------------------------------------------- index entries
class EntryBatch(NamedTuple):
    """Arguments of one ``VectorIndex.add_many`` call."""

    ids: List[str]
    vectors: np.ndarray
    days: List[float]
    categories: List[str]


def unit_scaled_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random directions at the norm real document embeddings have."""
    vectors = rng.standard_normal((count, VECTOR_DIM))
    vectors *= VECTOR_NORM / np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors


def index_entries(
    rng: np.random.Generator,
    count: int,
    first_serial: int,
    day_low: float,
    day_high: float,
    category_count: int,
    prefix: str,
) -> EntryBatch:
    """Random labelled entries dated uniformly in ``[day_low, day_high)``."""
    return EntryBatch(
        ids=[f"{prefix}-{serial:07d}" for serial in range(first_serial, first_serial + count)],
        vectors=unit_scaled_vectors(rng, count),
        days=rng.uniform(day_low, day_high, count).tolist(),
        categories=[
            f"Pad{int(code):03d}" for code in rng.integers(0, category_count, count)
        ],
    )


class BackfillInputs:
    """History to index, padding entries, and an endless stream of queries.

    Queries are the history's own incidents re-issued under fresh ids with
    their summary and prediction cleared, reshuffled every pass, so query
    days span the whole timeline and shard pruning cannot hide the scan.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.history = history_corpus(seed, sizes.backfill_history)
        self.sources = self.history.labelled()
        self.padding = index_entries(
            np.random.default_rng([seed, 0]),
            sizes.backfill_pad_entries,
            0,
            0.0,
            sizes.backfill_history[2],
            sizes.pad_categories,
            "PAD",
        )
        self._batch = sizes.backfill_batch
        self._shuffle = random.Random(seed * 15485863 + 3)
        self._order: List[int] = []
        self._issued = 0

    @staticmethod
    def reissue(source: Incident, incident_id: str) -> Incident:
        query = copy.copy(source)
        query.incident_id = incident_id
        query.summary = ""
        query.predicted_category = None
        query.explanation = ""
        return query

    def next_batch(self) -> Tuple[List[Incident], List[Incident]]:
        """``(sources, queries)`` of the next ``diagnose_many`` batch."""
        sources: List[Incident] = []
        for _ in range(self._batch):
            if not self._order:
                self._order = list(range(len(self.sources)))
                self._shuffle.shuffle(self._order)
            sources.append(self.sources[self._order.pop()])
        queries = [
            self.reissue(source, f"REDO-{self._issued + position:07d}")
            for position, source in enumerate(sources)
        ]
        self._issued += len(queries)
        return sources, queries


class ChurnWave(NamedTuple):
    """Inputs of one index_churn wave."""

    entries: EntryBatch
    relabel_ids: List[str]
    relabel_categories: List[str]
    query_batches: List[np.ndarray]
    #: Every live query is dated at the head of the timeline.
    query_days: np.ndarray


class ChurnInputs:
    """Preload plus an endless, speed-independent sequence of churn waves.

    Wave ``w`` is a pure function of ``(seed, w)``, so a faster program that
    gets through more waves in the timed window still sees the same wave
    ``w`` as a slower one.
    """

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        #: Days of timeline one wave appends, at the preload's density.
        self.wave_days = (
            sizes.churn_wave_entries * sizes.churn_preload_days / sizes.churn_preload_entries
        )
        self.preload = index_entries(
            np.random.default_rng([seed, 0]),
            sizes.churn_preload_entries,
            0,
            0.0,
            sizes.churn_preload_days,
            sizes.pad_categories,
            "E",
        )

    def entries_before(self, wave: int) -> int:
        return self.sizes.churn_preload_entries + wave * self.sizes.churn_wave_entries

    def head_day(self, wave: int) -> float:
        """The newest day on the timeline once ``wave`` waves were appended."""
        return self.sizes.churn_preload_days + wave * self.wave_days

    def wave(self, wave: int) -> ChurnWave:
        sizes = self.sizes
        rng = np.random.default_rng([self.seed, wave + 1])
        existing = self.entries_before(wave)
        entries = index_entries(
            rng,
            sizes.churn_wave_entries,
            existing,
            self.head_day(wave),
            self.head_day(wave + 1),
            sizes.pad_categories,
            "E",
        )
        targets = rng.integers(0, existing, sizes.churn_wave_relabels)
        return ChurnWave(
            entries=entries,
            relabel_ids=[f"E-{int(serial):07d}" for serial in targets],
            relabel_categories=[
                f"Pad{int(code):03d}"
                for code in rng.integers(0, sizes.pad_categories, sizes.churn_wave_relabels)
            ],
            query_batches=[
                unit_scaled_vectors(rng, sizes.churn_search_batch)
                for _ in range(sizes.churn_wave_search_batches)
            ],
            query_days=np.full(sizes.churn_search_batch, self.head_day(wave + 1)),
        )
