"""Verdicts and refusals of bench/compare.py."""

import copy
import io
import json

import pytest

from bench import compare


def test_verdict_against_the_bound():
    assert compare.verdict([100.0], [95.0], "higher", 0.10) == "ok"
    assert compare.verdict([100.0], [85.0], "higher", 0.10) == "regressed"
    assert compare.verdict([10.0], [10.9], "lower", 0.10) == "ok"
    assert compare.verdict([10.0], [11.5], "lower", 0.10) == "regressed"


def test_wide_base_spread_is_unresolved_unless_every_run_wins():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare.spread(noisy) > 0.10
    assert compare.verdict(noisy, [70.0, 100.0, 105.0], "higher", 0.10) == "unresolved"
    assert compare.verdict(noisy, [130.0, 140.0, 125.0], "higher", 0.10) == "ok"
    assert compare.verdict([8.0, 10.0, 12.0], [5.0, 6.0, 7.0], "lower", 0.10) == "ok"
    steady = [99.0, 100.0, 101.0, 100.5]
    assert compare.verdict(steady, [80.0, 81.0, 79.0, 80.5], "higher", 0.10) == "regressed"
    assert compare.spread([1.0]) is None


@pytest.fixture
def results(tmp_path):
    with open(compare.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    def entry(scale):
        return {
            "inputs_sha256": "abc",
            "correct": True,
            "end_to_end": {
                m["name"]: {"value": 100.0 * (scale if m["name"] == "items_per_s" else 1.0), "unit": m["unit"]}
                for m in spec["end_to_end"]
            },
            "per_layer": {
                m["name"]: {"value": 2.0 * (scale if m["name"] == "collection.collect.busy_s" else 1.0), "unit": m["unit"]}
                for m in spec["per_layer"]
            },
        }

    def write(name, scale=1.0, **overrides):
        document = {
            "seed": 1, "seconds": 10.0, "smoke": False, "commit": name * 12,
            "machine": {"nproc": 2},
            "workloads": {"burst_replay": entry(scale)},
        }
        for key, value in overrides.items():
            if key == "nproc":
                document["machine"]["nproc"] = value
            else:
                document[key] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        return str(path)

    return write


def test_compare_prints_rows_and_flags_a_regression(results):
    out = io.StringIO()
    assert compare.compare([results("a"), results("b", scale=0.97)], out=out) == 0
    text = out.getvalue()
    assert "== burst_replay" in text and "items_per_s" in text and "0.970x" in text and "n=1" in text
    assert "collection.collect.busy_s" in text and "-3.0%" in text
    assert "llm.model.busy_s" not in text  # unmoved layers are not listed
    assert compare.compare([results("a"), results("c", scale=0.7)], out=io.StringIO()) == 1


def test_compare_refuses_mismatched_runs(results):
    base = results("a")
    for overrides in ({"seed": 2}, {"nproc": 8}, {"smoke": True}, {"seconds": 5.0}):
        with pytest.raises(compare.Refused):
            compare.compare([base, results("b", **overrides)], out=io.StringIO())
    with pytest.raises(compare.Refused):
        compare.compare([base], out=io.StringIO())
    assert compare.main([base, results("b", seed=2)]) == 2
