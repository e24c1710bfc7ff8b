"""Run the benchmark: one pass of one workload, or every pass of all of them.

Single pass (what ``BENCHMARK.json``'s command runs)::

    python3 bench/run.py --workload burst_replay --seed 1 --seconds 10 --trace 0

builds the workload's inputs from the seed, sets it up (several times when
untraced; ``setup_s`` is the median), warms it up, measures for
``--seconds``, checks the outputs and prints one JSON object as the last
line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (spans go to ``bench/out/``).

Without ``--trace`` it runs every selected workload untraced and then
traced, each pass in a fresh subprocess, cross-checks the two passes,
prints every metric by name with its unit and writes
``bench/out/results_seed<seed>.json`` for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script, sys.path[0] is bench/ itself, where trace.py would
    # shadow the standard library's module of that name; import this
    # directory as the package `bench` from the repo root instead.
    sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bench import layers, loadgen, trace, workloads  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
SMOKE_SECONDS = 1.0
#: Untraced passes set up this many times and report the median.  Only the
#: index_churn set-up (no embedder fit) is cheap enough for a third go: this
#: box drifts by tens of percent within minutes, so keeping a run short does
#: more for its repeatability than one more set-up sample.
SETUP_REPEATS = {"burst_replay": 2, "stream_paced": 2, "backfill_200k": 2, "index_churn": 3}
#: Closed-loop windows must be CPU-bound: proof that nothing sleeps.  They
#: read 0.98-0.99 (1.5-1.75 where retrieval scores on both cores); a sleeping
#: handler or model would read below 0.5.  The margin is for a burst of
#: hypervisor steal time, which a shared box does now and then take.
MIN_CPU_WALL_RATIO = 0.8


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def machine_tag() -> Dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ----------------------------------------------------------------- one pass
def scaled_items_per_s(measured: workloads.Measured, closed_loop: bool) -> float:
    """Median round rate at reference speed."""
    # An open loop completes what the schedule offers, however fast the box.
    return statistics.median(
        items / (seconds * (speed if closed_loop else 1.0))
        for items, seconds, speed in zip(
            measured.round_items, measured.round_seconds, measured.round_speed
        )
    )


def end_to_end_metrics(
    measured: workloads.Measured, setup_seconds: Sequence[float], closed_loop: bool
) -> Dict[str, float]:
    """The end-to-end metrics, every time in them at reference speed (``probe.py``)."""
    return {
        "items_per_s": scaled_items_per_s(measured, closed_loop),
        "latency_p50_ms": workloads.percentile(measured.scaled_latencies_ms, 50),
        "cpu_ms_per_item": statistics.median(
            cpu_seconds * 1e3 / items
            for items, cpu_seconds in zip(measured.round_items, measured.round_scaled_cpu_seconds)
        ),
        "peak_rss_mb": (
            workloads.peak_rss_mb() if measured.peak_rss_mb is None else measured.peak_rss_mb
        ),
        "setup_s": statistics.median(setup_seconds),
    }


def run_pass(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> Dict[str, object]:
    """One pass of one workload; returns the contract's result plus detail."""
    spec = load_spec()
    sizes = loadgen.SMOKE if smoke else loadgen.FULL
    tracer = trace.Tracer() if traced else trace.NullTracer()
    span_cost = tracer.span_cost_seconds() if traced else 0.0
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    setup_seconds: List[float] = []
    setup_scaled_seconds: List[float] = []
    workload = None
    # The traced pass reports no set-up time, so it sets up once.
    for _ in range(1 if traced or smoke else SETUP_REPEATS[name]):
        if workload is not None:
            workload.close()
        workload = workloads.build(name, seed, seconds, sizes, tracer, str(OUT_DIR))
        as_timed, at_reference_speed = workload.timed_setup()
        setup_seconds.append(as_timed)
        setup_scaled_seconds.append(at_reference_speed)
    try:
        inputs_sha256 = workload.inputs_sha256()
        workload.warm_up()
        # Everything alive now is set-up state or generated input the harness
        # holds: keep it out of the collector's reach, or a full collection
        # mid-window stalls every thread for ~100 ms (and makes the open
        # loop's generator late) scanning what cannot be garbage.
        gc.collect()
        gc.freeze()
        measured = workload.measure()
        checks = workload.verify(measured)
    finally:
        workload.close()
        tracer.restore()
    if workload.closed_loop:
        checks["cpu_bound"] = measured.cpu_seconds / measured.wall_seconds >= MIN_CPU_WALL_RATIO
    failed_checks = sorted(check for check, passed in checks.items() if not passed)

    if traced:
        values = layers.per_layer_metrics(tracer.spans, measured, span_cost)
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        tracer.dump(
            str(OUT_DIR / f"trace_{name}.json"),
            extra={"workload": name, "seed": seed, "window": list(measured.window)},
        )
    else:
        values = end_to_end_metrics(measured, setup_scaled_seconds, workload.closed_loop)
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )
    if not all(math.isfinite(value) for value in values.values()):
        raise RuntimeError(f"non-finite metric in {values}")

    result = {
        "correct": measured.failed == 0 and not failed_checks,
        "attempted": measured.attempted + len(checks),
        "failed": measured.failed + len(failed_checks),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "smoke": smoke,
        "inputs_sha256": inputs_sha256,
        "failed_checks": failed_checks,
        "checks": checks,
        "unsustainable": workload.unsustainable(measured),
        "rounds": len(measured.round_items),
        "items": measured.items,
        "latency_samples": len(measured.latencies_ms),
        "wall_seconds": measured.wall_seconds,
        "cpu_wall_ratio": measured.cpu_seconds / measured.wall_seconds,
        "setup_seconds": setup_seconds,
        "setup_scaled_seconds": setup_scaled_seconds,
        "box_speed": statistics.median(measured.round_speed),
        "items_per_s": scaled_items_per_s(measured, workload.closed_loop),
        "raw_items_per_s": measured.items / measured.wall_seconds,
        "raw_latency_p50_ms": workloads.percentile(measured.latencies_ms, 50),
        "round_labels_sha256": measured.round_labels_sha256,
        "ingest_batches": measured.counters_after.get("ingest.batches", 0.0)
        - measured.counters_before.get("ingest.batches", 0.0),
    }
    return {"result": result, "detail": detail}


# ---------------------------------------------------------------- full mode
def _subprocess_pass(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> Dict[str, object]:
    detail_path = OUT_DIR / f"detail_{name}_{int(traced)}.json"
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(traced)),
        "--detail", str(detail_path),
    ]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{name} (trace={int(traced)}) exited {completed.returncode}:\n{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(detail_path, encoding="utf-8") as handle:
        detail = json.load(handle)
    detail_path.unlink()
    return {"result": result, "detail": detail}


def cross_pass_checks(name: str, untraced: Dict[str, object], traced: Dict[str, object]) -> List[str]:
    """Violations found by comparing a workload's two passes."""
    problems: List[str] = []
    plain, spans = untraced["detail"], traced["detail"]
    if plain["inputs_sha256"] != spans["inputs_sha256"]:
        problems.append("the two passes generated different inputs")
    # Time-bounded passes finish different numbers of rounds; the rounds
    # both finished must have produced the same labels.
    shared = min(len(plain["round_labels_sha256"]), len(spans["round_labels_sha256"]))
    if plain["round_labels_sha256"][:shared] != spans["round_labels_sha256"][:shared]:
        problems.append("the two passes predicted different labels")
    if name == "burst_replay" and plain["rounds"] and spans["rounds"]:
        # Batch membership is a function of the recording alone.
        if plain["ingest_batches"] / plain["rounds"] != spans["ingest_batches"] / spans["rounds"]:
            problems.append("the two passes cut different batches")
    return problems


def run_all(names: Sequence[str], seed: int, seconds: float, smoke: bool) -> int:
    spec = load_spec()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    document: Dict[str, object] = {
        "schema": 1,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "commit": commit_id(),
        "machine": machine_tag(),
        "workloads": {},
    }
    exit_code = 0
    for name in names:
        untraced = _subprocess_pass(name, seed, seconds, False, smoke)
        traced = _subprocess_pass(name, seed, seconds, True, smoke)
        problems = cross_pass_checks(name, untraced, traced)
        plain_rate = untraced["detail"]["items_per_s"]
        entry = {
            "inputs_sha256": untraced["detail"]["inputs_sha256"],
            "correct": untraced["result"]["correct"] and traced["result"]["correct"] and not problems,
            "attempted": untraced["result"]["attempted"] + traced["result"]["attempted"] + 3,
            "failed": untraced["result"]["failed"] + traced["result"]["failed"] + len(problems),
            "problems": problems
            + [f"untraced: {check}" for check in untraced["detail"]["failed_checks"]]
            + [f"traced: {check}" for check in traced["detail"]["failed_checks"]],
            "unsustainable": untraced["detail"]["unsustainable"],
            "end_to_end": untraced["result"]["metrics"],
            "per_layer": traced["result"]["metrics"],
            # Rate against rate, beside the span-cost estimate in trace.overhead_pct.
            "trace_slowdown_pct": (plain_rate / traced["detail"]["items_per_s"] - 1.0) * 100.0,
            "untraced": untraced["detail"],
            "traced": traced["detail"],
        }
        document["workloads"][name] = entry
        if not entry["correct"]:
            exit_code = 1
        print(f"== {name}  (seed {seed}, {seconds:g} s window, median rate {plain_rate:.1f}/s)")
        for metric in spec["end_to_end"]:
            value = entry["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<40} {value['value']:>14.4f} {value['unit']}")
        for metric in spec["per_layer"]:
            value = entry["per_layer"][metric["name"]]
            print(f"  {metric['name']:<40} {value['value']:>14.4f} {value['unit']}")
        print(f"  {'trace_slowdown_pct':<40} {entry['trace_slowdown_pct']:>14.4f} %")
        print(f"  failed {entry['failed']} of {entry['attempted']} operations and checks")
        for reason in entry["unsustainable"]:
            print(f"  UNSUSTAINABLE: {reason}")
        for problem in entry["problems"]:
            print(f"  FAILED: {problem}")
    path = OUT_DIR / f"results_seed{seed}{'_smoke' if smoke else ''}.json"
    temporary = path.with_suffix(".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    os.replace(temporary, path)
    print(f"results written to {path.relative_to(ROOT)}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed window per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes; results are not comparable")
    parser.add_argument("--detail", help="also write the pass's detail JSON here")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace is None:
        return run_all([args.workload] if args.workload else names, args.seed, seconds, args.smoke)
    if args.workload is None:
        parser.error("--trace needs --workload")
    outcome = run_pass(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(outcome["detail"], handle)
    for check in outcome["detail"]["failed_checks"]:
        print(f"FAILED: {check}", file=sys.stderr)
    for reason in outcome["detail"]["unsustainable"]:
        print(f"UNSUSTAINABLE: {reason}", file=sys.stderr)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
