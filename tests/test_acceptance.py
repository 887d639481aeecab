"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criteria 1-6 and 8 are fast property checks; criterion 7 runs the full
threshold_hybrid x high_volatility ablation (10 optimizer runs at budget 500)
through `run_experiment` with two workers.
"""

import json
import math

import numpy as np
import pytest

from conftest import adaptive_quadratic_search, encoded, quadratic
from tpe_as.baselines import run_baseline
from tpe_as.harness import ExperimentConfig, run_experiment, run_name, summary_from_log, summary_stats
from tpe_as.objective import importance_weight, lambda_schedule
from tpe_as.optimizer import OptimizerConfig, run, summarize
from tpe_as.space import Config, ParamDomain, ParamSpace, sample_uniform
from tpe_as.surrogate import History, TrialRecord, density, fit_kde, split_history


def _verdict(number, name, ok):
    print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_schedule_exactness():
    ok = lambda_schedule(1, 500) < 1e-4
    ok &= abs(lambda_schedule(250, 500) - 0.5) <= 1e-12
    ok &= lambda_schedule(500, 500) == 1.0
    values = [lambda_schedule(t, 500) for t in range(1, 1001)]
    ok &= all(b >= a for a, b in zip(values, values[1:]))
    _verdict(1, "schedule exactness", ok)


def test_criterion_2_clipping_property():
    rng = np.random.default_rng(0)
    ratios = 10.0 ** rng.uniform(-6, 6, 10_000)
    ok = True
    for eps in (0.1, 0.2, 0.35):
        ws = [importance_weight(g, 1.0, eps) for g in ratios]
        ok &= all(1 - eps <= w <= 1 + eps for w in ws)
        ok &= importance_weight(1.0, 1.0, eps) == 1.0
    _verdict(2, "clipping property", ok)


def test_criterion_3_kde_normalization():
    rng = np.random.default_rng(1)
    ok = True
    for trial in range(10):
        lo = float(rng.uniform(-5, 5))
        width = float(rng.uniform(0.5, 10))
        n_choices = int(rng.integers(2, 6))
        space = ParamSpace(
            (
                ParamDomain("x", "continuous", lo, lo + width),
                ParamDomain("c", "categorical", choices=tuple(f"c{i}" for i in range(n_choices))),
            )
        )
        members = [sample_uniform(space, rng) for _ in range(int(rng.integers(5, 31)))]
        model = fit_kde(encoded(space, members), space)
        probes_x = rng.uniform(lo, lo + width, 100_000)
        probes_c = rng.integers(n_choices, size=100_000)
        dens = density(model, np.column_stack([probes_x, probes_c]))  # choice c encodes as c
        integral = dens.mean() * width * n_choices
        ok &= abs(integral - 1.0) <= 0.05
    _verdict(3, "kde normalization", ok)


def test_criterion_4_split_correctness():
    rng = np.random.default_rng(2)
    space = ParamSpace((ParamDomain("x", "continuous", 0.0, 1.0),))
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 501))
        history = History(space)
        for step in range(1, n + 1):
            j = float(rng.normal())
            history.append(
                TrialRecord(step=step, config=Config((float(rng.uniform()),)),
                            f_value=j, j_score=j, proposal_density=1.0, lambda_used=0.0)
            )
        good, bad = split_history(history)
        ok &= len(good) == max(2, math.ceil(0.15 * n))
        ok &= len(good) + len(bad) == n
        ok &= sorted(history.trials[i].step for i in [*good, *bad]) == list(range(1, n + 1))
        if len(bad):
            j = np.array([t.j_score for t in history.trials])
            ok &= j[bad].max() <= j[good].min()
    _verdict(4, "split correctness", ok)


def test_criterion_5_mode_reduction(space_2d):
    opt = OptimizerConfig(budget=100, seed=7)
    forced = run(opt, quadratic, space_2d, schedule=lambda t, eta: 0.0)
    conventional = run_baseline("tpe_conventional", opt, quadratic, space_2d)
    ok = forced.trials == conventional.trials
    ok &= all(t.j_score == t.f_value and t.lambda_used == 0.0 for t in forced.trials)
    _verdict(5, "mode reduction", ok)


def test_criterion_6_synthetic_competence(space_2d):
    oracle_best = 0.0  # grid optimum of the noise-free quadratic
    near_optimum = 0
    beats_random = 0
    for seed in range(5):
        tpe_best = summarize(adaptive_quadratic_search(seed).f_values)["max_f"]
        opt = OptimizerConfig(budget=200, seed=seed)
        rs_best = summarize(run_baseline("random_search", opt, quadratic, space_2d).f_values)["max_f"]
        near_optimum += abs(tpe_best - oracle_best) <= 0.02
        beats_random += tpe_best >= rs_best
    ok = near_optimum >= 4 and beats_random >= 4
    _verdict(6, "synthetic-objective competence", ok)


@pytest.mark.slow
def test_criterion_7_ablation_direction(tmp_path):
    medians = {}
    for method in ("tpe_as", "tpe_conventional"):
        out = tmp_path / method
        config = ExperimentConfig(method, "threshold_hybrid", "high_volatility", 500, tuple(range(5)), str(out))
        assert run_experiment(config, parallelism=2) == 0  # a failed cell would drop its seed from the medians
        (medians[method],) = summary_stats(out / "summary.csv").values()  # one group: this preset
    adaptive, conventional = medians["tpe_as"], medians["tpe_conventional"]
    var_ratio = adaptive["variance_f"][0] / conventional["variance_f"][0]
    max_ratio = adaptive["max_f"][0] / conventional["max_f"][0]
    print(f"\ncriterion 7 measured: variance ratio {var_ratio:.3f} (need <= 0.70), "
          f"max ratio {max_ratio:.3f} (need >= 0.95)")
    ok = var_ratio <= 0.7 and max_ratio >= 0.95
    _verdict(7, "ablation direction", ok)


def test_criterion_8_determinism_and_audit(tmp_path):
    doc = {
        "method": "tpe_as",
        "strategy": "mean_reversion",
        "scenario": "range_bound_short",
        "optimizer": {"budget": 60},
        "seeds": [0, 1],
    }
    cfg_a = ExperimentConfig.from_json(json.dumps(dict(doc, output_dir=str(tmp_path / "a"))))
    cfg_b = ExperimentConfig.from_json(json.dumps(dict(doc, output_dir=str(tmp_path / "b"))))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    ok = True
    for seed in doc["seeds"]:
        name = run_name(cfg_a, seed)
        log_a = tmp_path / "a" / f"trials_{name}.jsonl"
        log_b = tmp_path / "b" / f"trials_{name}.jsonl"
        ok &= log_a.read_bytes() == log_b.read_bytes()
    import csv

    with (tmp_path / "a" / "summary.csv").open() as fh:
        for row in csv.DictReader(fh):
            ok &= row["status"] == "ok"
            audited = summary_from_log(
                tmp_path / "a" / f"trials_{run_name(cfg_a, int(row['seed']))}.jsonl"
            )
            ok &= float(row["max_f"]) == audited["max_f"]
            ok &= float(row["variance_f"]) == audited["variance_f"]
    _verdict(8, "determinism and audit", ok)
