import statistics

import numpy as np
import pytest

from tpe_as.baselines import run_baseline
from tpe_as.optimizer import OptimizerConfig, run, summarize
from tpe_as.space import ParamDomain, ParamSpace, sample_uniform, uniform_density


@pytest.fixture
def space_2d():
    return ParamSpace(
        (ParamDomain("x1", "continuous", 0.0, 1.0), ParamDomain("x2", "continuous", 0.0, 1.0))
    )


def quadratic(cfg):
    return -((cfg.values[0] - 0.3) ** 2) - (cfg.values[1] - 0.7) ** 2


def test_random_search_shape(space_2d):
    opt = OptimizerConfig(budget=50, n_init=10, seed=0)
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


def test_tpe_conventional_delegates(space_2d):
    opt = OptimizerConfig(budget=40, n_init=10, seed=1)
    viaBaseline = run_baseline("tpe_conventional", opt, quadratic, space_2d)
    conv = OptimizerConfig(budget=40, mode="conventional", n_init=10, seed=1)
    direct = run(conv, quadratic, space_2d)
    assert viaBaseline.trials == direct.trials


def test_unknown_kind_rejected(space_2d):
    with pytest.raises(ValueError):
        run_baseline("simulated_annealing", OptimizerConfig(budget=10, n_init=5, seed=0), quadratic, space_2d)


def test_tpe_beats_random_on_quadratic(space_2d):
    tpe_best, rs_best = [], []
    for seed in range(5):
        opt = OptimizerConfig(budget=100, n_init=20, seed=seed)
        tpe_best.append(summarize(run_baseline("tpe_conventional", opt, quadratic, space_2d)).max_f)
        rs_best.append(summarize(run_baseline("random_search", opt, quadratic, space_2d)).max_f)
    assert statistics.median(tpe_best) >= statistics.median(rs_best)


def test_monotone_best_so_far(space_2d):
    opt = OptimizerConfig(budget=30, n_init=10, seed=3)
    history = run_baseline("random_search", opt, quadratic, space_2d)
    running = -np.inf
    for t in history.trials:
        running = max(running, t.f_value)
        assert max(x.f_value for x in history.trials[: t.step]) == running
