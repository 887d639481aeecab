"""The sequential optimization loop and run summarization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import build_g_model, lagrangian_score, lambda_schedule, windowed_variance
from .space import Config, ParamSpace, sample_uniform, uniform_density
from .surrogate import History, TrialRecord, propose_next

FAILURE_FLAG = "blackbox_failure"
DEGENERATE_FLAG = "degenerate_volatility"
NONFINITE_FLAG = "nonfinite_result"  # NaN, +-inf, or overflow-sized: |f| > MAX_ABS_F
MAX_ABS_F = 1e100  # bigger results would overflow the windowed variance


class OptimizerError(ValueError):
    """Raised for invalid optimizer configuration."""


@dataclass(frozen=True)
class OptimizerConfig:
    budget: int
    mode: str = "adaptive"  # adaptive | conventional
    k: float = 0.15
    epsilon: float = 0.2
    window: int = 20
    n_init: int = 20
    n_candidates: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("budget", "n_init", "window", "n_candidates"):
            if type(getattr(self, name)) is not int:  # a bool is not a size
                raise OptimizerError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.mode not in ("adaptive", "conventional"):
            raise OptimizerError(f"unknown mode {self.mode!r}")
        if not 0 < self.k < 1:
            raise OptimizerError("k must lie in (0,1)")
        if self.n_init < 2 or self.n_init >= self.budget:
            raise OptimizerError("need 2 <= n_init < budget")
        if not 0 <= self.epsilon < np.inf or self.window < 2 or self.n_candidates < 1:
            raise OptimizerError("bad epsilon/window/n_candidates")


@dataclass(frozen=True)
class RunSummary:
    max_f: float
    variance_f: float  # population variance of all observed f
    best_config: Config


def run(
    opt: OptimizerConfig,
    blackbox: Callable[[Config], float],
    space: ParamSpace,
    schedule: Callable[[int, int], float] = lambda_schedule,
    propose: Callable | None = None,
) -> History:
    """Warm-up with uniform draws, then `propose` (TPE by default); score each trial.

    `propose` has the signature of `propose_next`:
    (history, space, k, n_candidates, rng) -> (config, proposal density).
    Conventional mode keeps lambda at 0 (objective score equals raw f);
    adaptive mode follows the cosine schedule and penalizes the clip-weighted
    windowed variance.  A blackbox that raises, or returns NaN, +-inf or a
    value beyond +-MAX_ABS_F, records f = 0 with FAILURE_FLAG (plus
    NONFINITE_FLAG for a bad value), and the budget is still consumed.
    """
    propose = propose or propose_next  # resolved per call, so a rebound name is used
    rng = np.random.default_rng(opt.seed)
    history = History()
    u_density = uniform_density(space)

    for t in range(1, opt.budget + 1):
        if t <= opt.n_init:
            config = sample_uniform(space, rng)
            q = u_density
        else:
            config, q = propose(history, space, opt.k, opt.n_candidates, rng)

        try:
            result = blackbox(config)
            f = float(result)
            flags = (DEGENERATE_FLAG,) if getattr(result, "degenerate", False) else ()
            if not abs(f) <= MAX_ABS_F:  # also catches NaN
                f, flags = 0.0, (FAILURE_FLAG, NONFINITE_FLAG)
        except Exception:
            f, flags = 0.0, (FAILURE_FLAG,)

        lam = schedule(t, opt.budget) if opt.mode == "adaptive" else 0.0
        variance = 0.0
        if lam > 0 and len(history) >= 2:
            g_model = build_g_model(history, opt.k, space)
            variance = windowed_variance(
                history, g_model, (config, f, q), opt.epsilon, opt.window
            )

        j = lagrangian_score(f, variance, lam)
        history.append(
            TrialRecord(
                step=t,
                config=config,
                f_value=f,
                j_score=j,
                proposal_density=q,
                lambda_used=lam,
                flags=flags,
            )
        )
    return history


def summarize(history: History) -> RunSummary:
    """Whole-run metrics: max f, population variance of f, best config."""
    if len(history) == 0:
        raise OptimizerError("cannot summarize an empty history")
    fs = np.array([t.f_value for t in history.trials])
    best = history.trials[int(np.argmax(fs))]
    return RunSummary(max_f=float(fs.max()), variance_f=float(np.var(fs)), best_config=best.config)
