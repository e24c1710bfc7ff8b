"""Compare benchmark results of two versions of the program.

    python3 bench/compare.py BASE.json CHANGE.json [BASE2.json CHANGE2.json ...]

The files are ``bench/out/results_*.json`` documents written by
``bench/run.py``, given in the order the runs were made: alternating base
and change, so run order cannot favour one side.  Per workload it prints one
row per end-to-end metric — both medians, the ratio with its base, the
base's own run-to-run spread (interquartile range over median) and a verdict
against the bound ``BENCHMARK.json`` fixes for that metric:

* ``ok`` — the change's median is not worse than the base's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the base's spread is wider than the bound, so the runs
  cannot tell, unless every run of the change beats every run of the base.

Below that, the per-layer metrics of the traced passes that moved.  Results
of different seeds, window lengths, core counts or ``--smoke`` runs are
refused.  Exit status: 0 no regression, 1 a regression, 2 refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    """The result files cannot be compared with each other."""


def load_results(paths: Sequence[str]) -> List[Dict[str, object]]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["path"] = path
        documents.append(document)
    return documents


def check_comparable(documents: Sequence[Dict[str, object]]) -> None:
    first = documents[0]
    for document in documents:
        if document.get("smoke"):
            raise Refused(f"{document['path']} is a --smoke result; its sizes are not the benchmark's")
        for field, value in (
            ("seed", document["seed"]),
            ("seconds", document["seconds"]),
            ("nproc", document["machine"]["nproc"]),
        ):
            expected = first["machine"]["nproc"] if field == "nproc" else first[field]
            if value != expected:
                raise Refused(
                    f"{document['path']} has {field}={value}, {first['path']} has {field}={expected}"
                )
        for name, entry in document["workloads"].items():
            reference = first["workloads"].get(name)
            if reference and reference["inputs_sha256"] != entry["inputs_sha256"]:
                raise Refused(f"{document['path']} ran {name} on different inputs than {first['path']}")


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over median; None with fewer than two runs."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else None


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if better == "higher":
        worse_by = (base_median - change_median) / abs(base_median) if base_median else 0.0
        clear_win = min(change) > max(base)
    else:
        worse_by = (change_median - base_median) / abs(base_median) if base_median else 0.0
        clear_win = max(change) < min(base)
    base_spread = spread(base)
    if base_spread is not None and base_spread > bound and not clear_win:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def _values(documents: Sequence[Dict[str, object]], workload: str, group: str, metric: str) -> List[float]:
    return [
        document["workloads"][workload][group][metric]["value"]
        for document in documents
        if workload in document["workloads"]
    ]


def compare(paths: Sequence[str], out=sys.stdout) -> int:
    if len(paths) < 2 or len(paths) % 2:
        raise Refused("give result files in base/change pairs")
    documents = load_results(paths)
    check_comparable(documents)
    bases, changes = documents[0::2], documents[1::2]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    print(
        f"base {bases[0]['commit'][:12]} ({len(bases)} runs)  vs  "
        f"change {changes[0]['commit'][:12]} ({len(changes)} runs);  "
        f"seed {bases[0]['seed']}, {bases[0]['seconds']:g} s windows, "
        f"{bases[0]['machine']['nproc']} cores",
        file=out,
    )
    regressed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        if not all(workload in document["workloads"] for document in documents):
            continue
        print(f"\n== {workload}", file=out)
        print(
            f"  {'end-to-end metric':<20}{'base':>12}{'change':>12}  {'change/base':>11}"
            f"  {'base spread':>11}  {'bound':>6}  verdict",
            file=out,
        )
        for metric in spec["end_to_end"]:
            base = _values(bases, workload, "end_to_end", metric["name"])
            change = _values(changes, workload, "end_to_end", metric["name"])
            base_median, change_median = statistics.median(base), statistics.median(change)
            base_spread = spread(base)
            outcome = verdict(base, change, metric["better"], metric["bound"])
            regressed = regressed or outcome == "regressed"
            print(
                f"  {metric['name']:<20}{base_median:>12.4g}{change_median:>12.4g}"
                f"  {change_median / base_median if base_median else float('nan'):>10.3f}x"
                f"  {'n=1' if base_spread is None else f'{base_spread * 100:.1f}%':>11}"
                f"  {metric['bound'] * 100:>5.0f}%  {outcome}"
                f"  ({metric['better']} is better, {metric['unit']})",
                file=out,
            )
        failed = [document["path"] for document in documents if not document["workloads"][workload]["correct"]]
        if failed:
            regressed = True
            print(f"  OUTPUT CHECKS FAILED in: {', '.join(failed)}", file=out)
        print(f"  {'per-layer metric (traced pass)':<42}{'base':>12}{'change':>12}  {'delta':>8}", file=out)
        for metric in spec["per_layer"]:
            base_median = statistics.median(_values(bases, workload, "per_layer", metric["name"]))
            change_median = statistics.median(_values(changes, workload, "per_layer", metric["name"]))
            if base_median == change_median:
                continue
            delta = (
                f"{(change_median / base_median - 1.0) * 100:+.1f}%" if base_median else "new"
            )
            print(
                f"  {metric['name']:<42}{base_median:>12.4g}{change_median:>12.4g}  {delta:>8}  {metric['unit']}",
                file=out,
            )
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", help="BASE.json CHANGE.json [BASE2.json CHANGE2.json ...]")
    args = parser.parse_args(argv)
    try:
        return compare(args.results)
    except Refused as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
