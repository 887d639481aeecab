"""Tiny-budget smoke tests of the benchmark itself: python3 -m pytest bench"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from tpe_as import cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    monkeypatch.setattr(measure, "MIN_TRIAL_SAMPLES", 1)


def test_spec_lists_what_the_benchmark_prints():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    for key, units in (("end_to_end", measure.END_TO_END_UNITS), ("per_layer", measure.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == units
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_budget_run_passes_the_gate(tmp_path, quick, name, trace):
    tiny = dataclasses.replace(WORKLOADS[name], budget=30)
    out = measure.run(tiny, seed=7, seconds=0.1, trace=trace, root=tmp_path)
    result = out["result"]
    assert result["correct"], out["details"]["searches"]
    assert result["failed"] == 0 and result["attempted"] >= 30
    units = measure.PER_LAYER_UNITS if trace else measure.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["optimizer.trials"] == 30
        assert m["blackbox.evaluate.calls"] == 30
        assert (m["objective.windowed_variance.calls"] > 0) == tiny.adaptive
        assert (m["surrogate.propose_next.calls"] > 0) == (tiny.method != "random_search")
        assert list(tmp_path.glob(".bench_out/results/*.spans.csv.gz"))


def test_gate_catches_a_tampered_log(tmp_path):
    workload = dataclasses.replace(WORKLOADS["conventional-trend-bull"], budget=25)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.experiment_config(5, str(tmp_path / "out"))))
    status = cli.main(["run", str(config_path)])
    assert measure.check_search(workload, config_path, status)["errors"] == []

    log = next((tmp_path / "out").glob("trials_*.jsonl"))
    lines = log.read_text().splitlines()
    doc = json.loads(lines[3])
    doc["f"] = doc["j_score"] = 1e6
    lines[3] = json.dumps(doc, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n")
    errors = measure.check_search(workload, config_path, status)["errors"]
    assert any("summary max_f" in e for e in errors)


def test_tracer_self_and_busy_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    tracer.search_id = 0
    outer()
    s = tracer.summarize(lambda search: search >= 0)
    assert s["inner"]["calls"] == 2 and s["outer"]["calls"] == 1
    assert s["outer"]["busy_s"] == pytest.approx(s["outer"]["self_s"] + s["inner"]["busy_s"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "random-hybrid-rbl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
