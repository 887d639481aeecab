"""Synthetic black-box portfolio evaluator: market generator, strategies, Sharpe."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .space import Config, ParamDomain, ParamSpace, require_valid

TRADING_DAYS = 252
TRANSACTION_COST = 0.0005  # 5 bp per unit of position change
DEGENERATE_VOL = 1e-12
N_ASSETS = 20  # in every scenario preset
N_GROUPS = 5  # hyperparameter groups of every strategy; asset a is in group a % N_GROUPS

# kind -> the (n_days, regimes, switch_rate, mean_rev) that generate_scenario reads
SCENARIOS = {
    # sharp bull / crash / churn regimes: a crisis-like market where
    # fragile configurations shine briefly and break on the next switch
    "high_volatility": (252, ((0.90, 0.25), (-1.10, 0.40), (0.10, 0.60)), 6.0, 0.0),
    "stable_bull": (756, ((0.12, 0.10), (0.09, 0.14)), 1.0, 0.0),
    "range_bound_long": (1260, ((0.0, 0.18), (0.0, 0.24)), 2.0, 2.0),
    "range_bound_short": (1008, ((0.0, 0.16), (0.0, 0.22)), 2.0, 2.0),
}

# every group is sized and stopped out alike; trend following and mean reversion share a mode
SIZING_STOP = (ParamDomain("sizing", "continuous", 0.0, 1.0), ParamDomain("stop", "continuous", 0.02, 0.30))
MODE = ParamDomain("mode", "categorical", choices=("long_only", "long_short"))

# name -> one group's domains; group g appends _g to each name
STRATEGIES = {
    "trend_following": (
        ParamDomain("fast", "integer", 2, 30),
        ParamDomain("slow", "integer", 10, 120),
        *SIZING_STOP, MODE,
    ),
    "mean_reversion": (
        ParamDomain("lookback", "integer", 5, 60),
        ParamDomain("entry_z", "continuous", 0.5, 3.0),
        *SIZING_STOP, MODE,
    ),
    "threshold_hybrid": (
        ParamDomain("mom_lb", "integer", 5, 60),
        ParamDomain("rsi_lb", "integer", 5, 30),
        ParamDomain("mom_th", "continuous", 0.0, 0.15),
        ParamDomain("rsi_band", "continuous", 10.0, 50.0),
        *SIZING_STOP,
    ),
}


class BlackboxError(ValueError):
    """Raised for invalid scenario or strategy inputs."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic market: a kind of SCENARIOS and the seed of its paths."""

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIOS:
            raise BlackboxError(f"unknown scenario kind {self.kind!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # every reader is handed this one array
    return a


@dataclass(frozen=True)
class PriceSeries:
    """Simulated prices, one row per asset, and the read-only series derived from
    them, each built on a strategy's first read: returns and running sums."""

    prices: np.ndarray  # (n_assets, n_days), a private read-only copy: no cached series goes stale

    def __post_init__(self):
        object.__setattr__(self, "prices", _read_only(np.array(self.prices)))

    def _running_sum(self, row: int, daily: np.ndarray) -> np.ndarray:
        """Row `row` of the zeroed sum block, filled with running sums of daily values
        along days, right-aligned (column t + 1 sums through day t), read-only."""
        out = self._block[row]
        np.cumsum(daily, axis=1, out=out[:, out.shape[1] - daily.shape[1] :])
        return _read_only(out)

    returns = cached_property(lambda self: _read_only(self.prices[:, 1:] / self.prices[:, :-1] - 1.0))
    # one block for the sums: freeing it lifts glibc's malloc thresholds, so per-call temporaries reuse heap pages
    _block = cached_property(lambda self: np.zeros((4, self.prices.shape[0], self.prices.shape[1] + 1)))
    price_sums = cached_property(lambda self: self._running_sum(0, self.prices))
    square_sums = cached_property(lambda self: self._running_sum(1, self.prices * self.prices))
    up_sums = cached_property(lambda self: self._running_sum(2, np.maximum(np.diff(self.prices, axis=1), 0.0)))
    down_sums = cached_property(lambda self: self._running_sum(3, np.maximum(-np.diff(self.prices, axis=1), 0.0)))


@dataclass(frozen=True)
class StrategyKind:
    """A strategy family together with its hyperparameter space."""

    name: str  # a key of STRATEGIES
    param_space: ParamSpace


def scenario_preset(kind: str, seed: int = 0) -> ScenarioSpec:
    """Build the canonical scenario for one of the four market settings."""
    return ScenarioSpec(kind, seed)


def generate_scenario(spec: ScenarioSpec) -> PriceSeries:
    """Regime-switching GBM paths of N_ASSETS assets with Poisson regime switches.

    SCENARIOS gives the kind's horizon, its (annualized drift, annualized vol)
    regimes, the expected switches per year and the mean reversion, which
    pulls log prices back toward their start (range-bound markets).  Every
    preset has at least two regimes and a positive switch rate; a switch
    moves to one of the other regimes.
    """
    n_days, regimes, switch_rate, mean_rev = SCENARIOS[spec.kind]
    rng = np.random.default_rng(spec.seed)
    dt = 1.0 / TRADING_DAYS

    # market-wide regime timeline
    regime = np.empty(n_days, dtype=int)
    current = int(rng.integers(len(regimes)))
    t = 0
    while t < n_days:
        gap = rng.exponential(1.0 / (switch_rate * dt))
        end = min(t + max(1, int(gap)), n_days)
        regime[t:end] = current
        t = end
        step = 1 + int(rng.integers(len(regimes) - 1))
        current = (current + step) % len(regimes)
    drifts, vols = np.array(regimes)[regime].T

    log_p = np.zeros((N_ASSETS, n_days))
    shocks = rng.standard_normal((N_ASSETS, n_days - 1))
    for t in range(1, n_days):
        mu, sig = drifts[t], vols[t]
        pull = -mean_rev * log_p[:, t - 1] * dt
        log_p[:, t] = (
            log_p[:, t - 1]
            + (mu - 0.5 * sig * sig) * dt
            + pull
            + sig * math.sqrt(dt) * shocks[:, t - 1]
        )
    return PriceSeries(prices=100.0 * np.exp(log_p))


def strategy_preset(name: str) -> StrategyKind:
    """Build a strategy family with per-group replicated hyperparameters."""
    if name not in STRATEGIES:
        raise BlackboxError(f"unknown strategy {name!r}")
    domains = tuple(replace(d, name=f"{d.name}_{g}") for g in range(N_GROUPS) for d in STRATEGIES[name])
    return StrategyKind(name=name, param_space=ParamSpace(domains))


def _trailing_mean(sums: np.ndarray, w: int, t0: int) -> np.ndarray:
    """Mean over the w days through day t, for each day t >= t0 (t0 >= w - 1)."""
    return (sums[:, t0 + 1 :] - sums[:, t0 + 1 - w : max(sums.shape[1] - w, 0)]) / w


@np.errstate(all="ignore")  # a comparison with nan is False, so nan needs no mask
def _raw_positions(kind: StrategyKind, params: dict, series: PriceSeries) -> np.ndarray:
    """Desired position per asset per day, decided from data through that day.

    Group g holds rows g, g + N_GROUPS, ...  Each branch computes a signal from
    its first day t0, and one tail applies the long-only mode and the sizing.
    Before t0 a position is 0.0; mean_reversion's t0 is 0, and its z = 0.0 before
    its window covers goes through clip, mode and sizing: a signed zero.
    """
    pos = np.zeros(series.prices.shape)

    for g in range(N_GROUPS):
        rows = slice(g, None, N_GROUPS)
        p = series.prices[rows]
        if kind.name == "trend_following":
            s = series.price_sums[rows]
            lo, hi = sorted((int(params[f"fast_{g}"]), int(params[f"slow_{g}"])))
            t0 = hi - 1
            sig = np.sign(np.nan_to_num(_trailing_mean(s, lo, t0) - _trailing_mean(s, hi, t0)))
        elif kind.name == "mean_reversion":
            lb = int(params[f"lookback_{g}"])
            mean = _trailing_mean(series.price_sums[rows], lb, lb - 1)
            var = _trailing_mean(series.square_sums[rows], lb, lb - 1) - mean * mean
            std = np.sqrt(np.maximum(var, 0.0, out=var), out=var)
            z = np.zeros(p.shape)
            np.divide(p[:, lb - 1 :] - mean, std, out=z[:, lb - 1 :], where=std > 1e-12)
            t0 = 0
            sig = np.clip(-z / params[f"entry_z_{g}"], -1.0, 1.0)
        else:  # threshold_hybrid
            lb = int(params[f"mom_lb_{g}"])
            rsi_lb = int(params[f"rsi_lb_{g}"])
            t0 = max(lb, rsi_lb)
            mom = p[:, t0:] / p[:, t0 - lb : max(p.shape[1] - lb, 0)] - 1.0
            gains = _trailing_mean(series.up_sums[rows], rsi_lb, t0)
            losses = _trailing_mean(series.down_sums[rows], rsi_lb, t0)
            denom = gains + losses
            rsi = np.where(denom <= 1e-12, 50.0, 100.0 * gains / denom)
            th = params[f"mom_th_{g}"]
            band = params[f"rsi_band_{g}"]
            long_ok = (mom > th) & (rsi < 100.0 - band)
            short_ok = (mom < -th) & (rsi > band)
            sig = np.where(long_ok, 1.0, np.where(short_ok, -1.0, 0.0))
        if params.get(f"mode_{g}") == "long_only":
            sig = np.maximum(sig, 0.0)
        pos[rows, t0:] = sig * params[f"sizing_{g}"]
    return pos


def _apply_stop_loss(params: dict, prices: np.ndarray, raw_pos: np.ndarray) -> np.ndarray:
    """Force positions flat after an adverse move beyond the stop level.

    A run is a stretch of days with one sign of the raw position; its entry
    price is the price on its first day.  A held position is flat from the
    first day its run loses more than the stop, through the end of the run.
    All decisions use prices through the current day.  Days are counted by
    flat index into prices, so that one take finds every entry price.
    """
    stops = np.resize([params[f"stop_{g}"] for g in range(N_GROUPS)], prices.shape[0])
    flat = np.arange(prices.size).reshape(prices.shape)
    sign = np.sign(raw_pos)
    changed = np.empty(sign.shape, dtype=bool)
    np.not_equal(sign[:, :1], 0.0, out=changed[:, :1])
    np.not_equal(sign[:, 1:], sign[:, :-1], out=changed[:, 1:])
    run_start = np.maximum.accumulate(np.where(changed, flat, flat[:, :1]), axis=1)
    entry = prices.take(run_start)
    with np.errstate(all="ignore"):  # entry <= 0 never triggers
        gain = np.divide(prices, entry)
        gain -= 1.0
        gain *= sign  # the run loses more than the stop where its gain is below -stop
    trigger = np.less(gain, -stops[:, None], out=changed)
    trigger &= entry > 0
    trigger &= sign != 0
    last_trigger = np.maximum.accumulate(np.where(trigger, flat, -1), axis=1)
    return np.where(last_trigger >= run_start, 0.0, raw_pos)


def run_strategy(kind: StrategyKind, params: Config, prices: PriceSeries) -> np.ndarray:
    """Daily portfolio returns net of transaction costs; no lookahead."""
    require_valid(kind.param_space, params)
    pdict = params.as_dict(kind.param_space)
    raw = _raw_positions(kind, pdict, prices)
    pos = _apply_stop_loss(pdict, prices.prices, raw)

    asset_ret = prices.returns  # (n_assets, n_days-1), day t uses prices t-1, t
    held = pos[:, :-1]  # position decided on day t-1 earns day t's return
    port = (held * asset_ret).mean(axis=0)
    prev = np.concatenate([np.zeros((held.shape[0], 1)), held[:, :-1]], axis=1)
    turnover = np.abs(held - prev).mean(axis=0)
    return port - TRANSACTION_COST * turnover


class SharpeValue(float):
    """Annualized Sharpe ratio; degenerate marks a zero-volatility series."""

    degenerate: bool = False

    def __new__(cls, value: float, degenerate: bool = False):
        obj = super().__new__(cls, value)
        obj.degenerate = degenerate
        return obj


def sharpe_annualized(returns) -> SharpeValue:
    """sqrt(252) * mean / sample stddev; 0 with a flag when volatility vanishes."""
    arr = np.asarray(returns, dtype=float)
    if arr.size < 2:
        raise BlackboxError("need at least 2 returns for a Sharpe ratio")
    std = float(np.std(arr, ddof=1))
    if std < DEGENERATE_VOL:
        return SharpeValue(0.0, degenerate=True)
    return SharpeValue(math.sqrt(TRADING_DAYS) * float(np.mean(arr)) / std)


_scenario_cache: dict = {}


def evaluate(kind: StrategyKind, scenario: ScenarioSpec, params: Config) -> SharpeValue:
    """The black-box boundary: scenario -> strategy -> annualized Sharpe."""
    series = _scenario_cache.get(scenario)
    if series is None:
        series = generate_scenario(scenario)
        _scenario_cache.clear()  # one market: a sweep over seeds would keep them all
        _scenario_cache[scenario] = series
    return sharpe_annualized(run_strategy(kind, params, series))
