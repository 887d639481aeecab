import math

import numpy as np
import pytest

import tpe_as.blackbox as bb
from tpe_as.blackbox import (
    BlackboxError,
    PriceSeries,
    ScenarioSpec,
    evaluate,
    generate_scenario,
    run_strategy,
    scenario_preset,
    sharpe_annualized,
    strategy_preset,
)
from tpe_as.space import Config, sample_uniform


def flat_params(kind, **overrides):
    values = []
    for d in kind.param_space.domains:
        base = overrides.get(d.name)
        if base is not None:
            values.append(base)
        elif d.kind == "categorical":
            values.append(d.choices[0])
        elif d.kind == "integer":
            values.append(int(d.lo))
        else:
            values.append(d.lo)
    return Config(tuple(values))


def sized_params(kind, sizing=1.0, **overrides):
    merged = {f"sizing_{g}": sizing for g in range(kind.n_groups)}
    merged.update(overrides)
    return flat_params(kind, **merged)


class TestGenerateScenario:
    def test_deterministic(self):
        spec = scenario_preset("high_volatility", seed=3)
        a, b = generate_scenario(spec), generate_scenario(spec)
        assert np.array_equal(a.prices, b.prices)

    def test_prices_positive_returns_consistent(self):
        series = generate_scenario(scenario_preset("range_bound_long", seed=1))
        assert (series.prices > 0).all()
        expect = series.prices[:, 1:] / series.prices[:, :-1] - 1
        assert np.allclose(series.returns, expect)

    def test_stable_bull_mostly_positive(self):
        positive = 0
        for seed in range(20):
            series = generate_scenario(scenario_preset("stable_bull", n_assets=20, seed=seed))
            total = series.prices[:, -1] / series.prices[:, 0]
            ann = total ** (252 / (series.prices.shape[1] - 1)) - 1
            if ann.mean() > 0:
                positive += 1
        assert positive >= 18

    def test_zero_vol_is_exact_exponential(self):
        spec = ScenarioSpec(
            "high_volatility", n_assets=3, n_days=252, seed=0,
            regimes=((0.10, 0.0),), switch_rate=0.0,
        )
        series = generate_scenario(spec)
        t = np.arange(252)
        expect = 100.0 * np.exp(0.10 * t / 252)
        assert np.allclose(series.prices, np.tile(expect, (3, 1)))

    def test_bad_horizon_rejected(self):
        with pytest.raises(BlackboxError):
            ScenarioSpec("high_volatility", 5, 500, 0, ((0.1, 0.2),))


class TestRunStrategy:
    @pytest.mark.parametrize("name", ["trend_following", "mean_reversion", "threshold_hybrid"])
    def test_zero_sizing_means_zero_returns(self, name):
        kind = strategy_preset(name)
        prices = generate_scenario(scenario_preset("high_volatility", seed=0))
        returns = run_strategy(kind, sized_params(kind, sizing=0.0), prices)
        assert np.allclose(returns, 0.0)

    @pytest.mark.parametrize("name", ["trend_following", "mean_reversion", "threshold_hybrid"])
    def test_no_lookahead(self, name):
        kind = strategy_preset(name)
        rng = np.random.default_rng(7)
        prices = generate_scenario(scenario_preset("high_volatility", seed=2))
        params = sample_uniform(kind.param_space, rng)
        base = run_strategy(kind, params, prices)
        t_perturb = 150
        bumped = prices.prices.copy()
        bumped[:, t_perturb] *= 1.03
        after = run_strategy(kind, params, PriceSeries(bumped))
        # return index i covers day i+1
        assert np.allclose(base[: t_perturb - 1], after[: t_perturb - 1])
        assert not np.allclose(base[t_perturb - 1 :], after[t_perturb - 1 :])

    def test_trend_following_hand_oracle(self):
        # strictly rising zero-vol path, fast=2 slow=10: the slow MA first
        # exists on price day 9, so the position earns from portfolio day 9,
        # paying the turnover cost once on entry and never again
        kind = strategy_preset("trend_following", n_groups=1)
        spec = ScenarioSpec(
            "high_volatility", n_assets=1, n_days=252, seed=0,
            regimes=((0.30, 0.0),), switch_rate=0.0,
        )
        prices = generate_scenario(spec)
        params = sized_params(kind, sizing=1.0, fast_0=2, slow_0=10, stop_0=0.30, mode_0="long_only")
        returns = run_strategy(kind, params, prices)
        asset = prices.returns[0]
        assert np.allclose(returns[:9], 0.0)  # no slow MA yet
        assert returns[9] == pytest.approx(asset[9] - 0.0005)  # entry cost
        assert np.allclose(returns[10:], asset[10:])  # held long, no turnover

    def test_costs_strictly_reduce_returns(self, monkeypatch):
        kind = strategy_preset("trend_following")
        prices = generate_scenario(scenario_preset("high_volatility", seed=4))
        rng = np.random.default_rng(0)
        params = sample_uniform(kind.param_space, rng)
        with_cost = run_strategy(kind, params, prices).sum()
        monkeypatch.setattr(bb, "TRANSACTION_COST", 0.0)
        without_cost = run_strategy(kind, params, prices).sum()
        assert with_cost < without_cost

    def test_short_lookback_prefix_is_flat(self):
        kind = strategy_preset("mean_reversion", n_groups=1)
        prices = generate_scenario(scenario_preset("high_volatility", seed=0))
        params = sized_params(kind, sizing=1.0, lookback_0=60)
        returns = run_strategy(kind, params, prices)
        assert np.allclose(returns[:59], 0.0)


class TestSharpe:
    def test_all_zero_is_degenerate(self):
        result = sharpe_annualized([0.0] * 10)
        assert result == 0.0 and result.degenerate

    def test_arithmetic_oracle(self):
        returns = [0.01, -0.01, 0.02]
        mean = sum(returns) / 3
        sd = math.sqrt(sum((r - mean) ** 2 for r in returns) / 2)
        expect = math.sqrt(252) * mean / sd
        assert sharpe_annualized(returns) == pytest.approx(expect)
        assert expect == pytest.approx(6.93, abs=0.01)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(1)
        returns = rng.normal(0.001, 0.01, 100)
        assert sharpe_annualized(-returns) == pytest.approx(-sharpe_annualized(returns))

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        returns = rng.normal(0.001, 0.01, 100)
        assert sharpe_annualized(3.7 * returns) == pytest.approx(sharpe_annualized(returns))

    def test_too_short_rejected(self):
        with pytest.raises(BlackboxError):
            sharpe_annualized([0.01])


class TestEvaluate:
    def test_deterministic(self):
        kind = strategy_preset("threshold_hybrid")
        spec = scenario_preset("high_volatility", seed=5)
        rng = np.random.default_rng(3)
        params = sample_uniform(kind.param_space, rng)
        assert evaluate(kind, spec, params) == evaluate(kind, spec, params)

    def test_zero_sizing_degenerate(self):
        kind = strategy_preset("mean_reversion")
        spec = scenario_preset("stable_bull", seed=0)
        result = evaluate(kind, spec, sized_params(kind, sizing=0.0))
        assert result == 0.0 and result.degenerate

    def test_landscape_spans_both_signs(self):
        # M3-S1 analog: uniform random configs produce positive and negative f
        kind = strategy_preset("threshold_hybrid")
        spec = scenario_preset("high_volatility", seed=0)
        rng = np.random.default_rng(0)
        fs = [float(evaluate(kind, spec, sample_uniform(kind.param_space, rng)))
              for _ in range(300)]
        assert min(fs) < 0 < max(fs)


class TestPresets:
    @pytest.mark.parametrize("name", ["trend_following", "mean_reversion", "threshold_hybrid"])
    def test_dimension_at_least_25(self, name):
        assert strategy_preset(name).param_space.m >= 25

    def test_unknown_names_rejected(self):
        with pytest.raises(BlackboxError):
            strategy_preset("momentum_farm")
        with pytest.raises(BlackboxError):
            scenario_preset("sideways_forever")
