import functools
import itertools
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIXED_SPACE, adaptive_quadratic_search, quadratic, random_space
from tpe_as import objective, optimizer
from tpe_as.baselines import BASELINE_KINDS, run_baseline
from tpe_as.blackbox import SharpeValue
from tpe_as.harness import history_from_jsonl, history_to_jsonl
from tpe_as.objective import MAX_EPSILON, lambda_schedule
from tpe_as.optimizer import (
    DEGENERATE_FLAG,
    FAILURE_FLAG,
    MAX_ABS_F,
    N_INIT,
    NONFINITE_FLAG,
    OptimizerConfig,
    OptimizerError,
    run,
    summarize,
)
from tpe_as.space import Config, SpaceError, sample_uniform, uniform_density
from tpe_as.surrogate import History


def mixed_f(cfg):
    x, n, c = cfg.values
    return -((x - 0.3) ** 2) - ((n - 4) / 10) ** 2 + {"A": 0.0, "B": 0.1, "C": -0.1}[c]


@pytest.fixture
def objective_steps(monkeypatch):
    """The step t of every build_g_model(history) and windowed_variance(history,
    g_model, current) call the loop makes, by name."""
    steps = {}
    for name in ("build_g_model", "windowed_variance"):
        steps[name] = []

        def counted(history, *args, _steps=steps[name], _original=getattr(optimizer, name)):
            _steps.append(len(history) + 1)  # trial t is scored against the t - 1 before it
            return _original(history, *args)

        monkeypatch.setattr(optimizer, name, counted)
    return steps


class TestRun:
    def test_out_of_domain_proposal_stops_run(self, space_2d):
        # the lenient blackbox would score the stray point and the log would
        # hold a config that history_from_jsonl rejects; the run refuses it
        scored = []

        def stray(history, rng):
            return Config((-999.0, 0.5)), 1.0

        def lenient(cfg):
            scored.append(cfg)
            return quadratic(cfg)

        opt = OptimizerConfig(budget=25, seed=0)
        with pytest.raises(SpaceError, match=r"^x1: value -999\.0 outside continuous domain$"):
            run(opt, lenient, space_2d, propose=stray)
        assert len(scored) == N_INIT  # the warm-up only

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(N_INIT + 1, N_INIT + 15),
        outcomes=st.lists(
            st.sampled_from(["ok", "ok", "degenerate", "raise", "nan", "inf", "-inf", "1e300", "-1e300"]),
            min_size=N_INIT + 15,
            max_size=N_INIT + 15,
        ),
        method=st.sampled_from(["tpe_as", *BASELINE_KINDS]),
    )
    def test_bad_blackbox_output_flagged(self, seed, budget, outcomes, method):
        # the one check of the loop's contract, on a black-box that fails as scripted
        def value(cfg):
            return sum(float(v) for v in cfg.values if not isinstance(v, str))

        def scripted(outcomes):
            pending = iter(outcomes)

            def evaluate(cfg):
                outcome = next(pending)
                if outcome == "raise":
                    raise RuntimeError("simulator crashed")
                if outcome == "degenerate":  # a zero-volatility series: no failure, but flagged
                    return SharpeValue(0.0, degenerate=True)
                return value(cfg) if outcome == "ok" else float(outcome)

            return evaluate

        space = random_space(np.random.default_rng(seed))
        opt = OptimizerConfig(budget=budget, seed=seed)
        runner = run if method == "tpe_as" else functools.partial(run_baseline, method)
        history = runner(opt, scripted(outcomes), space)
        assert [t.step for t in history.trials] == list(range(1, budget + 1))
        flags = {"ok": (), "degenerate": (DEGENERATE_FLAG,), "raise": (FAILURE_FLAG,)}
        uniform = np.random.default_rng(seed)  # the warm-up's stream, and all of random search's
        for t, outcome in zip(history.trials, outcomes):
            assert math.isfinite(t.f_value) and math.isfinite(t.j_score)
            assert t.flags == flags.get(outcome, (FAILURE_FLAG, NONFINITE_FLAG))
            assert t.f_value == (value(t.config) if outcome == "ok" else 0.0)
            assert t.lambda_used == (lambda_schedule(t.step, budget) if method == "tpe_as" else 0.0)
            assert t.j_score <= t.f_value
            if t.lambda_used == 0:
                assert t.j_score == t.f_value
            if t.step <= N_INIT or method == "random_search":
                assert (t.config, t.proposal_density) == (sample_uniform(space, uniform), uniform_density(space))
        # a bad outcome changes no trial before it, nor its own config and proposal density
        clean = runner(opt, scripted(["ok"] * budget), space)
        first_bad = next((i for i, outcome in enumerate(outcomes[:budget]) if outcome != "ok"), budget)
        assert history.trials[:first_bad] == clean.trials[:first_bad]
        proposed = lambda trials: [(t.config, t.proposal_density) for t in trials[: first_bad + 1]]
        assert proposed(history.trials) == proposed(clean.trials)
        log = history_to_jsonl(history, space)
        keys = {"step", "config", "f", "j_score", "lambda", "proposal_density", "flags"}
        assert [set(json.loads(line)) for line in log.splitlines()] == [keys] * budget
        back = history_from_jsonl(log, space)
        assert back.trials == history.trials
        assert history_to_jsonl(back, space) == log
        fs = [t.f_value for t in history.trials]
        expected = {"max_f": max(fs), "variance_f": pytest.approx(statistics.pvariance(fs), rel=1e-9)}
        assert summarize(history.f_values) == expected
        # a second run in the same process starts from nothing that the first left behind
        assert history_to_jsonl(runner(opt, scripted(outcomes), space), space) == log

    def test_widest_epsilon_keeps_j_finite_at_the_largest_f(self, space_2d, monkeypatch):
        # each weight at importance_weight's widest, 1 + MAX_EPSILON, on f values
        # of +-MAX_ABS_F: the windowed variance stays finite, so every trial records
        monkeypatch.setattr(objective, "importance_weight", lambda g, q, epsilon: 1.0 + MAX_EPSILON)
        opt = OptimizerConfig(budget=40, seed=0)
        signs = itertools.cycle([1.0, -1.0])
        history = run(opt, lambda cfg: next(signs) * MAX_ABS_F, space_2d)
        assert len(history) == 40
        assert all(math.isfinite(t.j_score) for t in history.trials)

    def test_adaptive_localizes_quadratic_optimum(self):
        # best config within L-inf 0.15 of the true optimum on every seed of criterion 6's searches
        for seed in range(5):
            history = adaptive_quadratic_search(seed)
            best = history.trials[int(np.argmax(history.f_values))].config
            assert abs(best.values[0] - 0.3) <= 0.15
            assert abs(best.values[1] - 0.7) <= 0.15

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_conventional_search_ignores_increasing_maps_of_f(self, seed):
        # with lambda at 0 the search sees f only through its ranks, so a
        # strictly increasing map of f proposes the same configs with the
        # same densities; the adaptive schedule's penalty weighs f itself (below)
        opt = OptimizerConfig(budget=60, seed=seed)
        conventional = functools.partial(run_baseline, "tpe_conventional", opt)
        expect = [(t.config, t.proposal_density) for t in conventional(mixed_f, MIXED_SPACE).trials]
        for increasing in (lambda v: 2 * v, lambda v: v + 1, math.exp):
            mapped = conventional(lambda cfg: increasing(mixed_f(cfg)), MIXED_SPACE)
            assert [(t.config, t.proposal_density) for t in mapped.trials] == expect

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: the penalty Var(w f) grows with the mean of f, so a shift of f moves the search",
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adaptive_search_ignores_a_shift_of_f(self, seed):
        # a variance that does not depend on f's origin would make f and
        # f + 1 propose the same configs; today the searches part at steps
        # 26, 27 and 22
        opt = OptimizerConfig(budget=60, seed=seed)
        expect = [t.config for t in run(opt, mixed_f, MIXED_SPACE).trials]
        shifted = run(opt, lambda cfg: mixed_f(cfg) + 1, MIXED_SPACE)
        assert [t.config for t in shifted.trials] == expect

    def test_lambda_comes_only_from_the_schedule(self, space_2d):
        calls = []

        def recording(t, eta):
            calls.append((t, eta))
            return t / 100

        history = run(OptimizerConfig(budget=30, seed=8), quadratic, space_2d, schedule=recording)
        assert calls == [(t, 30) for t in range(1, 31)]
        assert [t.lambda_used for t in history.trials] == [t / 100 for t in range(1, 31)]

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_baselines_never_score_with_the_objective(self, space_2d, objective_steps, kind):
        run_baseline(kind, OptimizerConfig(budget=30, seed=8), quadratic, space_2d)
        assert objective_steps == {"build_g_model": [], "windowed_variance": []}

    def test_default_run_scores_with_the_objective_from_step_3(self, space_2d, objective_steps):
        # the cosine schedule is positive from t = 1; the variance needs two trials before t
        run(OptimizerConfig(budget=30, seed=8), quadratic, space_2d)
        steps = list(range(3, 31))
        assert objective_steps == {"build_g_model": steps, "windowed_variance": steps}

    @pytest.mark.parametrize("budget", [-1, 0, 1, N_INIT])
    def test_rejects_bad_config(self, budget):
        with pytest.raises(OptimizerError, match=f"^budget must exceed the {N_INIT} warm-up draws, got {budget}$"):
            OptimizerConfig(budget=budget)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("budget", 30.0),
            ("budget", True),
            # what a JSON config can hold in place of a count
            ("budget", "30"),
            ("budget", None),
            # seed True would run as seed 1; -1 and 1.5 failed only inside numpy
            ("seed", -1),
            ("seed", True),
            ("seed", 1.5),
        ],
    )
    def test_rejects_non_int_size(self, name, value):
        with pytest.raises(OptimizerError, match=f"^{name} must be an int"):
            OptimizerConfig(**{"budget": 30, name: value})


class TestSummarize:
    def test_single_trial_zero_variance(self, space_2d):
        from tpe_as.surrogate import TrialRecord

        history = History(space_2d)
        history.append(
            TrialRecord(step=1, config=Config((0.5, 0.5)), f_value=1.5,
                        j_score=1.5, proposal_density=1.0, lambda_used=0.0)
        )
        summary = summarize(history.f_values)
        assert summary["variance_f"] == 0.0

    def test_empty_history_rejected(self, space_2d):
        with pytest.raises(OptimizerError):
            summarize(History(space_2d).f_values)
