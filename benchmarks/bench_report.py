#!/usr/bin/env python3
"""Fold archived ``BENCH_*.json`` artifacts into a markdown trend table.

CI archives every run's machine-readable benchmark results
(``BENCH_throughput.json`` / ``BENCH_retrieval.json``); this tool turns one
or more such archives into the perf-trajectory report the ROADMAP asks for.
Each positional argument is one *run*: either a directory holding
``BENCH_*.json`` files (label = directory name) or a single ``*.json`` file
(label = file stem).  With several runs — e.g. artifact downloads from
successive commits — the table reads left to right as a trend; with one it
is that run's scorecard.

Usage::

    # Current checkout's results, to stdout:
    python benchmarks/bench_report.py

    # Trend across downloaded artifact directories, into a file:
    python benchmarks/bench_report.py runs/abc123 runs/def456 -o BENCH_report.md

Unknown or missing files/metrics degrade to "—" cells — the report never
fails because a benchmark was skipped (e.g. a ``--quick`` run that dropped
a profile) or because an older archive predates a metric (e.g. runs
recorded before the ``tenants`` block existed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: The metric catalogue: (section, metric label, source file, extractor).
#: Extractors take the parsed JSON payload and return a float or None;
#: every lookup is defensive, so any payload shape degrades to a blank
#: cell rather than an error.


def _get(payload: dict, *path):
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _best_batch_speedup(payload: dict) -> Optional[float]:
    rows = _get(payload, "results")
    if not isinstance(rows, dict):
        return None
    speedups = [
        row.get("speedup")
        for row in rows.values()
        if isinstance(row, dict) and isinstance(row.get("speedup"), (int, float))
    ]
    return max(speedups) if speedups else None


METRICS: List[Tuple[str, str, str, object]] = [
    (
        "throughput",
        "batch vs sequential speedup (best history size)",
        "BENCH_throughput.json",
        _best_batch_speedup,
    ),
    (
        "throughput",
        "collect-bound pool speedup (4 workers)",
        "BENCH_throughput.json",
        lambda p: _get(p, "collect_bound", "speedup"),
    ),
    (
        "throughput",
        "pipelined vs barrier ingest speedup",
        "BENCH_throughput.json",
        lambda p: _get(p, "pipeline", "speedup"),
    ),
    (
        "throughput",
        "pipelined ingest overlap seconds",
        "BENCH_throughput.json",
        lambda p: _get(p, "pipeline", "overlap_seconds"),
    ),
    (
        "throughput",
        "autoscaled wall vs best static (bursty)",
        "BENCH_throughput.json",
        lambda p: _get(p, "bursty_autoscale", "autoscaled", "wall_ratio_vs_best_static"),
    ),
    (
        "throughput",
        "autoscaled worker-seconds vs best static (bursty)",
        "BENCH_throughput.json",
        lambda p: _get(
            p, "bursty_autoscale", "autoscaled", "worker_seconds_ratio_vs_best_static"
        ),
    ),
    (
        "throughput",
        "chaos wall ratio vs healthy (10% LLM timeouts)",
        "BENCH_throughput.json",
        lambda p: _get(p, "chaos", "wall_ratio"),
    ),
    (
        "throughput",
        "chaos lost futures",
        "BENCH_throughput.json",
        lambda p: _get(p, "chaos", "lost_futures"),
    ),
    (
        "throughput",
        "chaos degraded labels",
        "BENCH_throughput.json",
        lambda p: _get(p, "chaos", "degraded_labels"),
    ),
    (
        "throughput",
        "replay autoscaled wall vs best static (flash crowd)",
        "BENCH_throughput.json",
        lambda p: _get(p, "replay", "autoscaled", "wall_ratio_vs_best_static"),
    ),
    (
        "throughput",
        "replay autoscaled worker-seconds vs largest static",
        "BENCH_throughput.json",
        lambda p: _get(
            p, "replay", "autoscaled", "worker_seconds_ratio_vs_largest_static"
        ),
    ),
    (
        "throughput",
        "replay speed multiplier (flash crowd)",
        "BENCH_throughput.json",
        lambda p: _get(p, "replay", "speed"),
    ),
    (
        "throughput",
        "tenants steady p95 wall vs solo (fair share)",
        "BENCH_throughput.json",
        lambda p: _get(p, "tenants", "steady_p95_ratio"),
    ),
    (
        "throughput",
        "tenants bursty alerts shed by quota",
        "BENCH_throughput.json",
        lambda p: _get(p, "tenants", "bursty_shed"),
    ),
    (
        "retrieval",
        "sharded vs full-scan speedup (live)",
        "BENCH_retrieval.json",
        lambda p: _get(p, "speedups", "sharded_over_full_scan_live"),
    ),
    (
        "retrieval",
        "scanned shard ratio",
        "BENCH_retrieval.json",
        lambda p: _get(p, "stats", "scanned_shard_ratio"),
    ),
]


def load_run(path: str) -> Tuple[str, Dict[str, dict]]:
    """(label, {filename: payload}) for one run directory or file."""
    payloads: Dict[str, dict] = {}
    if os.path.isdir(path):
        # abspath first so "." (the CI default) labels the column with the
        # checkout directory's name instead of a literal dot.
        label = os.path.basename(os.path.normpath(os.path.abspath(path))) or path
        for name in sorted(os.listdir(path)):
            if name.startswith("BENCH_") and name.endswith(".json"):
                payloads[name] = _read_json(os.path.join(path, name))
    else:
        label = os.path.splitext(os.path.basename(path))[0]
        payloads[os.path.basename(path)] = _read_json(path)
    return label, payloads


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    return payload if isinstance(payload, dict) else {}


#: Placeholder for a metric absent from a run's payload — e.g. an archive
#: produced before the metric's benchmark section existed.  An em dash
#: renders as a visible "not measured" cell (a truly empty cell reads as a
#: formatting bug in most markdown viewers).
MISSING = "—"


def _format(value) -> str:
    if value is None:
        return MISSING
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_report(runs: List[Tuple[str, Dict[str, dict]]]) -> str:
    """The markdown trend table over the given runs."""
    lines = ["# Benchmark trend report", ""]
    labels = [label for label, _ in runs]
    header = "| section | metric | " + " | ".join(labels) + " |"
    rule = "| --- | --- | " + " | ".join("---:" for _ in labels) + " |"
    lines += [header, rule]
    for section, metric, filename, extract in METRICS:
        cells = []
        for _, payloads in runs:
            payload = payloads.get(filename, {})
            try:
                cells.append(_format(extract(payload)))
            except Exception:  # noqa: BLE001 - a bad payload is a missing cell
                cells.append(MISSING)
        lines.append(f"| {section} | {metric} | " + " | ".join(cells) + " |")
    quick_flags = []
    for label, payloads in runs:
        quick = any(
            _get(payload, "config", "quick_mode") for payload in payloads.values()
        )
        quick_flags.append(f"{label}: {'quick' if quick else 'full'}")
    lines += ["", "Mode per run: " + ", ".join(quick_flags), ""]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "runs",
        nargs="*",
        default=["."],
        help="run directories (or single BENCH_*.json files); default: .",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the markdown report here instead of stdout",
    )
    args = parser.parse_args(argv)
    runs = [load_run(path) for path in (args.runs or ["."])]
    report = render_report(runs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
