"""Synthetic black-box portfolio evaluator: market generator, strategies, Sharpe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import Config, ParamDomain, ParamSpace, require_valid

TRADING_DAYS = 252
TRANSACTION_COST = 0.0005  # 5 bp per unit of position change
DEGENERATE_VOL = 1e-12

SCENARIO_HORIZONS = {
    "high_volatility": 252,
    "stable_bull": 756,
    "range_bound_long": 1260,
    "range_bound_short": 1008,
}


class BlackboxError(ValueError):
    """Raised for invalid scenario or strategy inputs."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic market: regime set, horizon, seed.

    regimes is a tuple of (annualized drift, annualized vol) pairs; switches
    arrive as a Poisson process with switch_rate expected switches per year.
    mean_rev pulls log prices back toward their start (range-bound markets).
    """

    kind: str
    n_assets: int
    n_days: int
    seed: int
    regimes: tuple
    switch_rate: float = 0.0
    mean_rev: float = 0.0

    def __post_init__(self):
        if self.kind not in SCENARIO_HORIZONS:
            raise BlackboxError(f"unknown scenario kind {self.kind!r}")
        if self.n_assets < 1:
            raise BlackboxError("need at least one asset")
        nominal = SCENARIO_HORIZONS[self.kind]
        if not 0.9 * nominal <= self.n_days <= 1.1 * nominal:
            raise BlackboxError(
                f"{self.kind} horizon must be within 10% of {nominal} days"
            )
        if not self.regimes:
            raise BlackboxError("need at least one regime")


@dataclass(frozen=True)
class PriceSeries:
    """Simulated prices, one row per asset, with derived simple returns."""

    prices: np.ndarray  # (n_assets, n_days)

    @property
    def returns(self) -> np.ndarray:
        return self.prices[:, 1:] / self.prices[:, :-1] - 1.0


@dataclass(frozen=True)
class StrategyKind:
    """A strategy family together with its hyperparameter space."""

    name: str  # trend_following | mean_reversion | threshold_hybrid
    param_space: ParamSpace
    n_groups: int


def scenario_preset(kind: str, n_assets: int = 20, seed: int = 0) -> ScenarioSpec:
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


def generate_scenario(spec: ScenarioSpec) -> PriceSeries:
    """Regime-switching GBM paths with Poisson regime switches."""
    rng = np.random.default_rng(spec.seed)
    dt = 1.0 / TRADING_DAYS

    # market-wide regime timeline
    regime = np.empty(spec.n_days, dtype=int)
    current = int(rng.integers(len(spec.regimes)))
    t = 0
    while t < spec.n_days:
        if spec.switch_rate > 0 and len(spec.regimes) > 1:
            gap = rng.exponential(1.0 / (spec.switch_rate * dt))
            run = max(1, int(gap))
        else:
            run = spec.n_days
        end = min(t + run, spec.n_days)
        regime[t:end] = current
        t = end
        if len(spec.regimes) > 1:
            step = 1 + int(rng.integers(len(spec.regimes) - 1))
            current = (current + step) % len(spec.regimes)

    drifts = np.array([spec.regimes[r][0] for r in regime])
    vols = np.array([spec.regimes[r][1] for r in regime])

    log_p = np.zeros((spec.n_assets, spec.n_days))
    shocks = rng.standard_normal((spec.n_assets, spec.n_days - 1))
    for t in range(1, spec.n_days):
        mu, sig = drifts[t], vols[t]
        pull = -spec.mean_rev * log_p[:, t - 1] * dt
        log_p[:, t] = (
            log_p[:, t - 1]
            + (mu - 0.5 * sig * sig) * dt
            + pull
            + sig * math.sqrt(dt) * shocks[:, t - 1]
        )
    return PriceSeries(prices=100.0 * np.exp(log_p))


def strategy_preset(name: str, n_groups: int = 5) -> StrategyKind:
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


def _rolling_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Trailing mean over the last w entries inclusive; nan before coverage."""
    out = np.full_like(x, np.nan, dtype=float)
    if w < 1 or x.shape[-1] < w:
        return out
    csum = np.cumsum(x, axis=-1)
    out[..., w - 1] = csum[..., w - 1] / w
    out[..., w:] = (csum[..., w:] - csum[..., :-w]) / w
    return out


def _rolling_std(x: np.ndarray, w: int) -> np.ndarray:
    m = _rolling_mean(x, w)
    m2 = _rolling_mean(x * x, w)
    var = np.maximum(m2 - m * m, 0.0)
    return np.sqrt(var)


def _raw_positions(kind: StrategyKind, params: dict, prices: np.ndarray) -> np.ndarray:
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


def _apply_stop_loss(
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


def run_strategy(kind: StrategyKind, params: Config, prices: PriceSeries) -> np.ndarray:
    """Daily portfolio returns net of transaction costs; no lookahead."""
    require_valid(kind.param_space, params)
    pdict = params.as_dict(kind.param_space)
    mat = prices.prices
    raw = _raw_positions(kind, pdict, mat)
    pos = _apply_stop_loss(kind, pdict, mat, raw)

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
        _scenario_cache[scenario] = series
    return sharpe_annualized(run_strategy(kind, params, series))
