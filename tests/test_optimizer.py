import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_space
from tpe_as.baselines import run_baseline
from tpe_as.optimizer import (
    FAILURE_FLAG,
    NONFINITE_FLAG,
    OptimizerConfig,
    OptimizerError,
    run,
    summarize,
)
from tpe_as.space import Config, ParamDomain, ParamSpace
from tpe_as.surrogate import History


@pytest.fixture
def space_2d():
    return ParamSpace(
        (ParamDomain("x1", "continuous", 0.0, 1.0), ParamDomain("x2", "continuous", 0.0, 1.0))
    )


def quadratic(cfg):
    return -((cfg.values[0] - 0.3) ** 2) - (cfg.values[1] - 0.7) ** 2


class TestRun:
    def test_budget_exactness(self, space_2d):
        opt = OptimizerConfig(budget=30, n_init=10, seed=0)
        assert len(run(opt, quadratic, space_2d)) == 30

    def test_conventional_j_equals_f(self, space_2d):
        opt = OptimizerConfig(budget=30, mode="conventional", n_init=10, seed=1)
        history = run(opt, quadratic, space_2d)
        for t in history.trials:
            assert t.j_score == t.f_value
            assert t.lambda_used == 0.0

    def test_warmup_count(self, space_2d):
        # eta=25, n_init=20 -> exactly 5 guided proposals
        opt = OptimizerConfig(budget=25, n_init=20, seed=2)
        history = run(opt, quadratic, space_2d)
        warm_density = history.trials[0].proposal_density
        warm = [t for t in history.trials if t.proposal_density == warm_density]
        assert len(warm) >= 20
        assert all(t.step <= 20 for t in history.trials[:20])

    def test_determinism(self, space_2d):
        opt = OptimizerConfig(budget=40, n_init=10, seed=3)
        assert run(opt, quadratic, space_2d).trials == run(opt, quadratic, space_2d).trials

    @pytest.mark.parametrize(
        "runner",
        [run, lambda opt, bb, space: run_baseline("random_search", opt, bb, space)],
        ids=["run", "random_search"],
    )
    def test_failure_containment(self, space_2d, runner):
        calls = []

        def flaky(cfg):
            calls.append(cfg)
            if len(calls) == 15:
                raise RuntimeError("model blew up")
            return quadratic(cfg)

        opt = OptimizerConfig(budget=30, n_init=10, seed=4)
        history = runner(opt, flaky, space_2d)
        assert len(history) == 30
        failed = history.trials[14]
        assert failed.f_value == 0.0
        assert FAILURE_FLAG in failed.flags
        clean = runner(opt, quadratic, space_2d)
        assert history.trials[:14] == clean.trials[:14]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        outcomes=st.lists(
            st.sampled_from(["ok", "ok", "raise", "nan", "inf", "-inf", "1e300", "-1e300"]),
            min_size=30,
            max_size=30,
        ),
        runner=st.sampled_from([run, functools.partial(run_baseline, "random_search")]),
    )
    def test_bad_blackbox_output_flagged(self, seed, outcomes, runner):
        pending = iter(outcomes)

        def bad_blackbox(cfg):
            outcome = next(pending)
            if outcome == "raise":
                raise RuntimeError("simulator crashed")
            if outcome != "ok":
                return float(outcome)
            return sum(float(v) for v in cfg.values if not isinstance(v, str))

        opt = OptimizerConfig(budget=30, n_init=8, n_candidates=8, window=6, seed=seed)
        history = runner(opt, bad_blackbox, random_space(np.random.default_rng(seed)))
        assert len(history) == 30
        for t, outcome in zip(history.trials, outcomes):
            assert math.isfinite(t.f_value) and math.isfinite(t.j_score)
            assert (FAILURE_FLAG in t.flags) == (outcome != "ok")
            assert (NONFINITE_FLAG in t.flags) == (outcome not in ("ok", "raise"))

    def test_monotone_best_so_far(self, space_2d):
        opt = OptimizerConfig(budget=60, n_init=10, seed=5)
        history = run(opt, quadratic, space_2d)
        best = -np.inf
        for t in history.trials:
            best = max(best, t.f_value)
            assert max(x.f_value for x in history.trials[: t.step]) == best

    def test_adaptive_finds_quadratic_optimum(self, space_2d):
        hits = 0
        for seed in range(5):
            opt = OptimizerConfig(budget=200, mode="adaptive", seed=seed)
            summary = summarize(run(opt, quadratic, space_2d))
            if summary.max_f >= -0.02:
                hits += 1
        assert hits >= 4

    def test_adaptive_localizes_quadratic_optimum(self, space_2d):
        # best config within L-inf 0.15 of the true optimum on every seed
        for seed in range(5):
            opt = OptimizerConfig(budget=200, mode="adaptive", seed=seed)
            best = summarize(run(opt, quadratic, space_2d)).best_config
            assert abs(best.values[0] - 0.3) <= 0.15
            assert abs(best.values[1] - 0.7) <= 0.15

    def test_mode_reduction_with_zero_schedule(self, space_2d):
        opt_a = OptimizerConfig(budget=50, mode="adaptive", n_init=10, seed=6)
        opt_c = OptimizerConfig(budget=50, mode="conventional", n_init=10, seed=6)
        forced = run(opt_a, quadratic, space_2d, schedule=lambda t, eta: 0.0)
        conventional = run(opt_c, quadratic, space_2d)
        assert forced.trials == conventional.trials

    def test_rejects_bad_config(self):
        with pytest.raises(OptimizerError):
            OptimizerConfig(budget=10, n_init=10)
        with pytest.raises(OptimizerError):
            OptimizerConfig(budget=10, mode="chaotic")

    @pytest.mark.parametrize(
        "name, value", [("budget", 30.0), ("n_init", True), ("window", 5.5), ("n_candidates", 8.0)]
    )
    def test_rejects_non_int_size(self, name, value):
        with pytest.raises(OptimizerError, match=f"^{name} must be an int"):
            OptimizerConfig(**{"budget": 30, name: value})


class TestSummarize:
    def test_oracle_values(self, space_2d):
        history = History()
        from tpe_as.surrogate import TrialRecord

        for i, f in enumerate([1.0, 2.0, 3.0], start=1):
            history.append(
                TrialRecord(step=i, config=Config((0.1 * i, 0.2)), f_value=f,
                            j_score=f, proposal_density=1.0, lambda_used=0.0)
            )
        summary = summarize(history)
        assert summary.max_f == 3.0
        assert summary.variance_f == pytest.approx(2 / 3)
        assert summary.best_config == Config((0.1 * 3, 0.2))

    def test_single_trial_zero_variance(self):
        from tpe_as.surrogate import TrialRecord

        history = History()
        history.append(
            TrialRecord(step=1, config=Config((0.5, 0.5)), f_value=1.5,
                        j_score=1.5, proposal_density=1.0, lambda_used=0.0)
        )
        summary = summarize(history)
        assert summary.variance_f == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(OptimizerError):
            summarize(History())
