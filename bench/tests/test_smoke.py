"""The one command, end to end, on tiny sizes."""

import json
import math
import shutil
import subprocess
import sys

import pytest

from bench import layers, run

ROOT = run.ROOT
SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*arguments, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "bench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_benchmark_json_lists_exactly_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "items_per_s", "latency_p50_ms", "cpu_ms_per_item", "peak_rss_mb", "setup_s",
    }
    assert set(WORKLOADS) == set(run.SETUP_REPEATS)
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.fixture(scope="module")
def smoke_results():
    completed = _run("--smoke", "--seed", "3")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(run.OUT_DIR / "results_seed3_smoke.json", encoding="utf-8") as handle:
        return completed.stdout, json.load(handle)


def test_smoke_run_reports_every_named_metric(smoke_results):
    stdout, document = smoke_results
    assert document["smoke"] is True and document["seed"] == 3
    assert set(document["machine"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0 and not entry["problems"], (name, entry["problems"])
        assert len(entry["inputs_sha256"]) == 64
        for group in ("end_to_end", "per_layer"):
            assert [m["name"] for m in SPEC[group]] == list(
                name for name in (m["name"] for m in SPEC[group]) if name in entry[group]
            )
            for metric in SPEC[group]:
                reported = entry[group][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert math.isfinite(reported["value"])
                assert f"  {metric['name']} " in stdout
        assert all(entry["end_to_end"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
        assert (run.OUT_DIR / f"trace_{name}.json").exists()


def test_smoke_run_separates_the_layers(smoke_results):
    _, document = smoke_results
    layer = lambda name, metric: document["workloads"][name]["per_layer"][metric]["value"]  # noqa: E731
    assert layer("burst_replay", "collection.collect.busy_s") > 0
    assert layer("burst_replay", "vectordb.add.entries") > 0  # feedback reached the index
    assert layer("burst_replay", "streaming.flush_size_share") == 1.0
    assert layer("backfill_200k", "telemetry.query.calls") == 0  # no handlers
    assert layer("backfill_200k", "prediction.embedding_cache_hit_ratio") == 1.0
    assert layer("stream_paced", "streaming.queue_wait_p50_ms") > 0
    assert layer("stream_paced", "streaming.reconcile_err_pct") < 5.0
    assert layer("index_churn", "vectordb.save.bytes") > 0
    assert layer("index_churn", "collection.collect.calls") == 0


def test_single_pass_prints_the_contract_line():
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        completed = _run(
            "--workload", "index_churn", "--seed", "4", "--seconds", "1", "--trace", trace, "--smoke"
        )
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = _run(
        "--workload", "index_churn", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
