import statistics

import pytest

from conftest import quadratic
from tpe_as.baselines import run_baseline
from tpe_as.optimizer import OptimizerConfig, summarize


def test_unknown_kind_rejected(space_2d):
    with pytest.raises(ValueError):
        run_baseline("simulated_annealing", OptimizerConfig(budget=30, seed=0), quadratic, space_2d)


def test_tpe_beats_random_on_quadratic(space_2d):
    tpe_best, rs_best = [], []
    for seed in range(5):
        opt = OptimizerConfig(budget=100, seed=seed)
        tpe_best.append(summarize(run_baseline("tpe_conventional", opt, quadratic, space_2d).f_values)["max_f"])
        rs_best.append(summarize(run_baseline("random_search", opt, quadratic, space_2d).f_values)["max_f"])
    assert statistics.median(tpe_best) >= statistics.median(rs_best)
