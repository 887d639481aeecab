import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tpe_as.blackbox as bb
from tpe_as import cli
from tpe_as.blackbox import (
    SCENARIOS,
    STRATEGIES,
    BlackboxError,
    PriceSeries,
    ScenarioSpec,
    StrategyKind,
    _apply_stop_loss,
    _raw_positions,
    _rolling_mean,
    _rolling_std,
    evaluate,
    generate_scenario,
    run_strategy,
    scenario_preset,
    sharpe_annualized,
    strategy_preset,
)
from tpe_as.space import Config, ParamDomain, ParamSpace, sample_uniform


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
            series = generate_scenario(scenario_preset("stable_bull", seed=seed))
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
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_zero_sizing_means_zero_returns(self, name):
        kind = strategy_preset(name)
        prices = generate_scenario(scenario_preset("high_volatility", seed=0))
        returns = run_strategy(kind, sized_params(kind, sizing=0.0), prices)
        assert np.allclose(returns, 0.0)

    @pytest.mark.parametrize("name", STRATEGIES)
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
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_dimension_at_least_25(self, name):
        assert strategy_preset(name).param_space.m >= 25

    def test_unknown_names_rejected(self):
        with pytest.raises(BlackboxError):
            strategy_preset("momentum_farm")
        with pytest.raises(BlackboxError):
            scenario_preset("sideways_forever")


# The if-chain presets that the SCENARIOS and STRATEGIES tables replaced,
# kept verbatim (with the horizon table they read) as the tables' oracle.
SCENARIO_HORIZONS = {
    "high_volatility": 252,
    "stable_bull": 756,
    "range_bound_long": 1260,
    "range_bound_short": 1008,
}


def reference_scenario_preset(kind: str, n_assets: int = 20, seed: int = 0) -> ScenarioSpec:
    """Build the canonical scenario for one of the four market settings."""
    n_days = SCENARIO_HORIZONS.get(kind)
    if n_days is None:
        raise BlackboxError(f"unknown scenario kind {kind!r}")
    if kind == "high_volatility":
        # sharp bull / crash / churn regimes: a crisis-like market where
        # fragile configurations shine briefly and break on the next switch
        regimes = ((0.90, 0.25), (-1.10, 0.40), (0.10, 0.60))
        return ScenarioSpec(kind, n_assets, n_days, seed, regimes, switch_rate=6.0)
    if kind == "stable_bull":
        regimes = ((0.12, 0.10), (0.09, 0.14))
        return ScenarioSpec(kind, n_assets, n_days, seed, regimes, switch_rate=1.0)
    if kind == "range_bound_long":
        regimes = ((0.0, 0.18), (0.0, 0.24))
        return ScenarioSpec(
            kind, n_assets, n_days, seed, regimes, switch_rate=2.0, mean_rev=2.0
        )
    regimes = ((0.0, 0.16), (0.0, 0.22))
    return ScenarioSpec(
        "range_bound_short", n_assets, n_days, seed, regimes, switch_rate=2.0, mean_rev=2.0
    )


def reference_strategy_preset(name: str, n_groups: int = 5) -> StrategyKind:
    """Build a strategy family with per-group replicated hyperparameters."""
    domains = []
    for g in range(n_groups):
        if name == "trend_following":
            domains += [
                ParamDomain(f"fast_{g}", "integer", 2, 30),
                ParamDomain(f"slow_{g}", "integer", 10, 120),
                ParamDomain(f"sizing_{g}", "continuous", 0.0, 1.0),
                ParamDomain(f"stop_{g}", "continuous", 0.02, 0.30),
                ParamDomain(f"mode_{g}", "categorical", choices=("long_only", "long_short")),
            ]
        elif name == "mean_reversion":
            domains += [
                ParamDomain(f"lookback_{g}", "integer", 5, 60),
                ParamDomain(f"entry_z_{g}", "continuous", 0.5, 3.0),
                ParamDomain(f"sizing_{g}", "continuous", 0.0, 1.0),
                ParamDomain(f"stop_{g}", "continuous", 0.02, 0.30),
                ParamDomain(f"mode_{g}", "categorical", choices=("long_only", "long_short")),
            ]
        elif name == "threshold_hybrid":
            domains += [
                ParamDomain(f"mom_lb_{g}", "integer", 5, 60),
                ParamDomain(f"rsi_lb_{g}", "integer", 5, 30),
                ParamDomain(f"mom_th_{g}", "continuous", 0.0, 0.15),
                ParamDomain(f"rsi_band_{g}", "continuous", 10.0, 50.0),
                ParamDomain(f"sizing_{g}", "continuous", 0.0, 1.0),
                ParamDomain(f"stop_{g}", "continuous", 0.02, 0.30),
            ]
        else:
            raise BlackboxError(f"unknown strategy {name!r}")
    return StrategyKind(name=name, param_space=ParamSpace(tuple(domains)), n_groups=n_groups)


class TestPresetTablesMatchReference:
    def test_tables_name_the_paper_settings(self):
        assert list(SCENARIOS) == list(SCENARIO_HORIZONS)
        assert list(STRATEGIES) == ["trend_following", "mean_reversion", "threshold_hybrid"]

    @pytest.mark.parametrize("n_groups", range(1, 6))
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_strategy(self, name, n_groups):
        new, old = strategy_preset(name, n_groups), reference_strategy_preset(name, n_groups)
        assert new == old
        # 2 == 2.0, so equality alone would hide an int -> float bound
        assert [(type(d.lo), type(d.hi)) for d in new.param_space.domains] == [
            (type(d.lo), type(d.hi)) for d in old.param_space.domains
        ]

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**32 - 1])
    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_scenario(self, kind, seed):
        new, old = scenario_preset(kind, seed=seed), reference_scenario_preset(kind, seed=seed)
        assert new == old
        assert repr(new) == repr(old)  # repr tells 6 from 6.0, as == does not

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_show_space_prints_reference_space(self, capsys, name):
        assert cli.main(["show-space", name]) == 0
        assert capsys.readouterr().out == reference_strategy_preset(name).param_space.to_json() + "\n"


class TestScenarioCache:
    def test_keeps_only_the_latest_market(self):
        kind = strategy_preset("trend_following")
        params = sized_params(kind)
        for seed in range(3):
            evaluate(kind, scenario_preset("high_volatility", seed=seed), params)
        assert list(bb._scenario_cache) == [scenario_preset("high_volatility", seed=2)]

    def test_repeated_spec_generates_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bb, "generate_scenario", lambda spec: calls.append(spec) or generate_scenario(spec))
        bb._scenario_cache.clear()
        kind = strategy_preset("trend_following")
        spec = scenario_preset("high_volatility", seed=11)
        first = evaluate(kind, spec, sized_params(kind))
        assert evaluate(kind, spec, sized_params(kind)) == first
        assert calls == [spec]


# The per-day stop-loss loop and the nan-masked positions that the
# whole-array code replaced, kept verbatim as its oracle.
def reference_raw_positions(kind: StrategyKind, params: dict, prices: np.ndarray) -> np.ndarray:
    """Desired position per asset per day, decided from data through that day."""
    n_assets, n_days = prices.shape
    pos = np.zeros((n_assets, n_days))
    groups = np.arange(n_assets) % kind.n_groups

    for g in range(kind.n_groups):
        mask = groups == g
        p = prices[mask]
        if kind.name == "trend_following":
            fast = int(params[f"fast_{g}"])
            slow = int(params[f"slow_{g}"])
            lo, hi = min(fast, slow), max(fast, slow)
            if lo == hi:
                continue
            sig = np.sign(np.nan_to_num(_rolling_mean(p, lo) - _rolling_mean(p, hi)))
            if params[f"mode_{g}"] == "long_only":
                sig = np.maximum(sig, 0.0)
            pos[mask] = sig * params[f"sizing_{g}"]
        elif kind.name == "mean_reversion":
            lb = int(params[f"lookback_{g}"])
            mean = _rolling_mean(p, lb)
            std = _rolling_std(p, lb)
            z = np.where(std > 1e-12, (p - mean) / np.where(std > 1e-12, std, 1.0), 0.0)
            z = np.nan_to_num(z)
            raw = np.clip(-z / params[f"entry_z_{g}"], -1.0, 1.0)
            if params[f"mode_{g}"] == "long_only":
                raw = np.maximum(raw, 0.0)
            pos[mask] = raw * params[f"sizing_{g}"]
        else:  # threshold_hybrid
            lb = int(params[f"mom_lb_{g}"])
            rsi_lb = int(params[f"rsi_lb_{g}"])
            mom = np.full_like(p, np.nan)
            if n_days > lb:
                mom[:, lb:] = p[:, lb:] / p[:, :-lb] - 1.0
            diff = np.diff(p, axis=1)
            gains = _rolling_mean(np.maximum(diff, 0.0), rsi_lb)
            losses = _rolling_mean(np.maximum(-diff, 0.0), rsi_lb)
            denom = gains + losses
            rsi = np.full_like(p, 50.0)
            valid = np.zeros_like(p, dtype=bool)
            valid[:, 1:] = ~np.isnan(denom)
            rsi[:, 1:] = np.where(
                np.nan_to_num(denom) > 1e-12,
                100.0 * np.nan_to_num(gains) / np.where(np.nan_to_num(denom) > 1e-12, np.nan_to_num(denom), 1.0),
                50.0,
            )
            th = params[f"mom_th_{g}"]
            band = params[f"rsi_band_{g}"]
            long_ok = (np.nan_to_num(mom, nan=-np.inf) > th) & (rsi < 100.0 - band) & valid
            short_ok = (np.nan_to_num(mom, nan=np.inf) < -th) & (rsi > band) & valid
            sig = np.where(long_ok, 1.0, np.where(short_ok, -1.0, 0.0))
            pos[mask] = sig * params[f"sizing_{g}"]
    return pos


def reference_stop_loss(
    kind: StrategyKind, params: dict, prices: np.ndarray, raw_pos: np.ndarray
) -> np.ndarray:
    """Force positions flat after an adverse move beyond the stop level.

    A stop stays engaged until the raw signal changes sign; entry prices are
    tracked at sign changes.  All decisions use prices through the current day.
    """
    n_assets, n_days = prices.shape
    groups = np.arange(n_assets) % kind.n_groups
    stops = np.array([params[f"stop_{groups[a]}"] for a in range(n_assets)])

    pos = raw_pos.copy()
    entry = np.zeros(n_assets)
    prev_sign = np.zeros(n_assets)
    stopped = np.zeros(n_assets, dtype=bool)
    for t in range(n_days):
        sign = np.sign(raw_pos[:, t])
        flipped = sign != prev_sign
        stopped &= ~flipped
        entered = flipped & (sign != 0)
        entry[entered] = prices[entered, t]
        holding = sign != 0
        adverse = np.zeros(n_assets)
        np.divide(prices[:, t], entry, out=adverse, where=entry > 0)
        with np.errstate(invalid="ignore"):
            loss = np.where(holding & (entry > 0), -sign * (adverse - 1.0), 0.0)
        stopped |= holding & (loss > stops)
        pos[stopped, t] = 0.0
        prev_sign = sign
    return pos


@functools.lru_cache(maxsize=None)
def market(scenario):
    return generate_scenario(scenario_preset(scenario, seed=0)).prices


def assert_same_bits(new, old):
    assert np.array_equal(new, old, equal_nan=True)  # returns are nan where a price is 0
    assert np.array_equal(np.signbit(new), np.signbit(old))


def warning_free(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def reference_run_strategy(kind, params, series):
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(bb, "_raw_positions", reference_raw_positions)
        mp.setattr(bb, "_apply_stop_loss", reference_stop_loss)
        return run_strategy(kind, params, series)


def assert_matches_reference(kind, params, prices):
    """Positions, stopped positions and returns are the oracle's, bit for bit."""
    pdict = params.as_dict(kind.param_space)
    with np.errstate(all="ignore"):
        old_raw = reference_raw_positions(kind, pdict, prices)
        old_pos = reference_stop_loss(kind, pdict, prices, old_raw)
    raw = warning_free(_raw_positions, kind, pdict, prices)
    assert_same_bits(raw, old_raw)
    assert_same_bits(warning_free(_apply_stop_loss, kind, pdict, prices, raw), old_pos)
    series = PriceSeries(prices)
    with np.errstate(all="ignore"):  # PriceSeries.returns divides by zero prices
        returns = run_strategy(kind, params, series)
    assert_same_bits(returns, reference_run_strategy(kind, params, series))


class TestWholeArrayRulesMatchReference:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("name", STRATEGIES)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_configs_on_preset_markets(self, name, scenario, seed):
        kind = strategy_preset(name)
        params = sample_uniform(kind.param_space, np.random.default_rng(seed))
        assert_matches_reference(kind, params, market(scenario))

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(list(STRATEGIES)),
        seed=st.integers(0, 2**32 - 1),
        n_days=st.integers(1, 130),
        broken=st.sampled_from([0.0, 0.02, 0.3]),
    )
    def test_short_markets_with_zero_and_negative_prices(self, name, seed, n_days, broken):
        # n_days up to 130 spans every lookback (the longest is slow_g <= 120)
        rng = np.random.default_rng(seed)
        kind = strategy_preset(name, n_groups=int(rng.integers(1, 6)))
        params = sample_uniform(kind.param_space, rng)
        prices = market("high_volatility")[: int(rng.integers(1, 9)), :n_days].copy()
        hit = rng.random(prices.shape) < broken
        prices[hit] *= rng.choice([0.0, -0.0, -1.0], size=int(hit.sum()))
        assert_matches_reference(kind, params, prices)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_stop_loss_on_signed_zeros_flips_and_bad_prices(self, data):
        n_groups = data.draw(st.integers(1, 4))
        shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(0, 40)))
        raw = data.draw(arrays(float, shape, elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])))
        prices = data.draw(arrays(float, shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0, -3.0, 90.0, 100.0, 110.0]),
            st.floats(-200.0, 200.0),
        )))
        params = {f"stop_{g}": data.draw(st.floats(0.0, 0.5)) for g in range(n_groups)}
        kind = strategy_preset("threshold_hybrid", n_groups=n_groups)
        with np.errstate(all="ignore"):
            expect = reference_stop_loss(kind, params, prices, raw)
        assert_same_bits(warning_free(_apply_stop_loss, kind, params, prices, raw), expect)
