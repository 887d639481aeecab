import statistics

import numpy as np
import pytest

from conftest import quadratic
from tpe_as.baselines import run_baseline
from tpe_as.optimizer import OptimizerConfig, summarize
from tpe_as.space import sample_uniform, uniform_density


def test_random_search_shape(space_2d):
    opt = OptimizerConfig(budget=50, seed=0)
    history = run_baseline("random_search", opt, quadratic, space_2d)
    assert len(history) == 50
    assert all(t.lambda_used == 0.0 for t in history.trials)
    assert all(t.j_score == t.f_value for t in history.trials)
    # all proposals uniform: shared proposal density
    assert len({t.proposal_density for t in history.trials}) == 1
    # trial i is the i-th uniform draw from the seed's stream, scored raw
    rng = np.random.default_rng(opt.seed)
    for t in history.trials:
        assert t.config == sample_uniform(space_2d, rng)
        assert t.f_value == quadratic(t.config)
        assert t.j_score == t.f_value
        assert t.proposal_density == uniform_density(space_2d)


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
