"""Recorded benchmark corpora generated from cloudsim workloads.

Two production-shaped traffic recordings ship as benchmark fixtures under
``benchmarks/corpora/`` (regenerable with ``python -m repro.bus.corpora``):

* **diurnal** — six hours of background traffic whose fault-injection rate
  follows a day-shaped sine (quiet start, mid-recording peak), the bread
  and butter of a triage deployment: alerts trickle and cluster, and a
  third of them get OCE feedback some minutes later;
* **flash_crowd** — a short calm phase, then a dense multi-category burst
  (the monitors' dedup window is narrowed so the crowd actually reaches
  the bus), then cool-down: the recording the golden-traffic suite and
  ``examples/streaming_triage.py`` replay.

Both are pure functions of their seed: the simulation, the injection
schedule, the per-alert jitter and the feedback choices all draw from
seeded RNGs, so regenerating a corpus yields byte-identical JSONL — the
golden-traffic suite asserts exactly that.

Feedback events label a recorded incident with the injected fault's
ground-truth category (the scenario catalogue maps each alert type back to
the category that presents with it), delivered ``feedback_delay`` recorded
seconds after the alert — mid-stream, so replays exercise the
feedback-visible-to-next-batch path.
"""

from __future__ import annotations

import argparse
import math
import os
import random
from typing import Dict, List, Optional

from ..cloudsim import TransportService
from ..cloudsim.scenarios import TABLE1_SCENARIOS
from ..incidents import Incident
from ..monitors import Alert, AlertRouter
from .jsonl import AlertEvent, BusEvent, FeedbackEvent, Recording, build_recording

#: Alert type -> the root-cause category that presents with it (Table 1).
CATEGORY_OF_ALERT_TYPE: Dict[str, str] = {
    scenario.alert_type: scenario.category for scenario in TABLE1_SCENARIOS
}

#: Fixture file names, relative to the corpora directory.
DIURNAL_FILENAME = "diurnal.jsonl"
FLASH_CROWD_FILENAME = "flash_crowd.jsonl"


def _feedback_for(
    alert: Alert, sequence: int, delay: float, offset: float
) -> Optional[FeedbackEvent]:
    """An OCE confirmation for a recorded alert, ``delay`` seconds later."""
    category = CATEGORY_OF_ALERT_TYPE.get(alert.alert_type)
    if category is None:
        return None
    incident = Incident.from_alert(f"OCE-{sequence:05d}", alert)
    return FeedbackEvent(offset=offset + delay, incident=incident, category=category)


def _record_slot_alerts(
    alerts: List[Alert],
    slot_start_offset: float,
    slot_seconds: float,
    rng: random.Random,
    events: List[BusEvent],
    feedback_fraction: float,
    feedback_delay: float,
    feedback_counter: List[int],
) -> None:
    """Capture one slot's alerts (jittered within the slot) plus feedback.

    Monitors stamp every alert with the evaluation window's *end*; real
    monitors fire spread across the window, so each alert gets a seeded
    uniform jitter inside the slot — deterministic, and it exercises the
    replayer's latency-bound cuts instead of delivering each slot as one burst.
    (The jitters desynchronize capture order from time order;
    ``build_recording``'s stable offset sort restores it.)
    """
    for alert in alerts:
        jitter = rng.uniform(0.0, max(slot_seconds - 1.0, 0.0))
        offset = round(slot_start_offset + jitter, 3)
        events.append(AlertEvent(offset=offset, alert=alert))
        if rng.random() < feedback_fraction:
            feedback_counter[0] += 1
            feedback = _feedback_for(
                alert, feedback_counter[0], feedback_delay, offset
            )
            if feedback is not None:
                events.append(feedback)


def generate_diurnal_recording(
    hours: float = 6.0,
    slot_seconds: float = 600.0,
    seed: int = 17,
    feedback_fraction: float = 0.35,
    feedback_delay: float = 420.0,
) -> Recording:
    """Six hours (by default) of diurnally modulated incident traffic."""
    service = TransportService(seed=seed)
    service.warm_up(hours=0.5)
    rng = random.Random(seed * 7919 + 13)
    categories = [scenario.category for scenario in TABLE1_SCENARIOS]
    events: List[BusEvent] = []
    feedback_counter = [0]
    start_clock = service.clock
    slots = int(round(hours * 3600.0 / slot_seconds))
    for slot in range(slots):
        slot_start_offset = service.clock - start_clock
        # Day-shaped intensity over the recording: trough at the start,
        # peak in the middle (a 6h window riding a 24h sine).
        phase = (slot + 0.5) / max(slots, 1)
        intensity = 0.5 * (1.0 - math.cos(2.0 * math.pi * phase))
        injections = 0
        if rng.random() < 0.25 + 0.65 * intensity:
            injections = 1 + (1 if rng.random() < 0.45 * intensity else 0)
        for _ in range(injections):
            service.inject(rng.choice(categories))
        alerts = service.advance(slot_seconds)
        _record_slot_alerts(
            alerts,
            slot_start_offset,
            slot_seconds,
            rng,
            events,
            feedback_fraction,
            feedback_delay,
            feedback_counter,
        )
    return build_recording(
        events,
        meta={
            "name": "diurnal",
            "seed": seed,
            "hours": hours,
            "slot_seconds": slot_seconds,
            "workload": "cloudsim.TransportService diurnal fault schedule",
        },
    )


def generate_flash_crowd_recording(
    seed: int = 29,
    calm_slots: int = 5,
    burst_slots: int = 10,
    cooldown_slots: int = 5,
    slot_seconds: float = 120.0,
    feedback_fraction: float = 0.2,
    feedback_delay: float = 180.0,
) -> Recording:
    """A calm stream, a dense multi-category burst, then cool-down.

    The monitor router's dedup window is narrowed to one slot so the burst
    is not collapsed into one alert per category — a flash crowd *is*
    near-duplicate alerts arriving faster than triage drains them.
    """
    service = TransportService(seed=seed)
    service.monitors.router = AlertRouter(dedup_window=slot_seconds)
    service.warm_up(hours=0.25)
    rng = random.Random(seed * 6133 + 7)
    categories = [scenario.category for scenario in TABLE1_SCENARIOS]
    forests = [forest.name for forest in service.topology.forests]
    events: List[BusEvent] = []
    feedback_counter = [0]
    start_clock = service.clock
    total_slots = calm_slots + burst_slots + cooldown_slots
    for slot in range(total_slots):
        slot_start_offset = service.clock - start_clock
        in_burst = calm_slots <= slot < calm_slots + burst_slots
        if in_burst:
            injections = 2 + (1 if rng.random() < 0.6 else 0)
        else:
            injections = 1 if rng.random() < 0.3 else 0
        for _ in range(injections):
            service.inject(rng.choice(categories), forest=rng.choice(forests))
        alerts = service.advance(slot_seconds)
        _record_slot_alerts(
            alerts,
            slot_start_offset,
            slot_seconds,
            rng,
            events,
            feedback_fraction,
            feedback_delay,
            feedback_counter,
        )
    return build_recording(
        events,
        meta={
            "name": "flash_crowd",
            "seed": seed,
            "slot_seconds": slot_seconds,
            "calm_slots": calm_slots,
            "burst_slots": burst_slots,
            "cooldown_slots": cooldown_slots,
            "workload": "cloudsim.TransportService flash-crowd fault schedule",
        },
    )


#: Corpus name -> generator, the registry the CLI and tests iterate.
GENERATORS = {
    "diurnal": generate_diurnal_recording,
    "flash_crowd": generate_flash_crowd_recording,
}


def default_corpora_dir() -> str:
    """The checked-in fixture directory (benchmarks/corpora)."""
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(repo_root, "benchmarks", "corpora")


def corpus_path(name: str, directory: Optional[str] = None) -> str:
    """Path of a named corpus fixture."""
    return os.path.join(directory or default_corpora_dir(), f"{name}.jsonl")


def load_corpus(name: str, directory: Optional[str] = None) -> Recording:
    """Load a checked-in corpus fixture by name."""
    return Recording.load(corpus_path(name, directory))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the recorded benchmark corpora (JSONL)."
    )
    parser.add_argument(
        "--out",
        default=default_corpora_dir(),
        help="output directory (default: benchmarks/corpora)",
    )
    parser.add_argument(
        "--only",
        choices=sorted(GENERATORS),
        default=None,
        help="regenerate a single corpus",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    names = [args.only] if args.only else sorted(GENERATORS)
    for name in names:
        recording = GENERATORS[name]()
        path = corpus_path(name, args.out)
        recording.save(path)
        print(
            f"{path}: {len(recording.alerts)} alerts, "
            f"{len(recording.feedbacks)} feedbacks, "
            f"{recording.duration_seconds:.0f}s recorded"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
