"""The sequential optimization loop and run summarization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import build_g_model, lagrangian_score, lambda_schedule, windowed_variance
from .space import Config, ParamSpace, require_valid, sample_uniform, uniform_density
from .surrogate import MAX_ABS_F, History, TrialRecord, propose_next

FAILURE_FLAG = "blackbox_failure"
DEGENERATE_FLAG = "degenerate_volatility"
NONFINITE_FLAG = "nonfinite_result"  # NaN, +-inf, or overflow-sized: |f| > MAX_ABS_F

N_INIT = 20  # uniform warm-up draws


class OptimizerError(ValueError):
    """Raised for invalid optimizer configuration."""


@dataclass(frozen=True)
class OptimizerConfig:
    budget: int
    seed: int = 0

    def __post_init__(self):
        for name in ("budget", "seed"):
            if type(getattr(self, name)) is not int:  # a bool is not a count
                raise OptimizerError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise OptimizerError(f"seed must be an int >= 0, got {self.seed!r}")
        if not N_INIT < self.budget:  # the first proposal then has a bad trial to fit
            raise OptimizerError(f"budget must exceed the {N_INIT} warm-up draws, got {self.budget}")


def run(
    opt: OptimizerConfig,
    blackbox: Callable[[Config], float],
    space: ParamSpace,
    schedule: Callable[[int, int], float] = lambda_schedule,
    propose: Callable | None = None,
) -> History:
    """Warm-up with N_INIT uniform draws, then `propose` (TPE by default); score each trial.

    `propose` has the signature of `propose_next`, (history, rng) -> (config,
    proposal density), and reads the space off the History; the surrogate and
    the objective hold the method's other constants.
    Trial t is scored with lambda = schedule(t, budget), by default the cosine
    schedule that penalizes the clip-weighted windowed variance; a zero
    schedule keeps J = f: conventional TPE.  A blackbox that raises, or returns
    NaN, +-inf or a value beyond +-MAX_ABS_F, records f = 0 with FAILURE_FLAG
    (plus NONFINITE_FLAG for a bad value), and the budget is still consumed.
    """
    propose = propose or propose_next  # resolved per call, so a rebound name is used
    rng = np.random.default_rng(opt.seed)
    history = History(space)
    u_density = uniform_density(space)

    for t in range(1, opt.budget + 1):
        if t <= N_INIT:
            config = sample_uniform(space, rng)
            q = u_density
        else:
            config, q = propose(history, rng)
        require_valid(space, config)  # SpaceError: a bad proposal is no black-box failure

        try:
            result = blackbox(config)
            f = float(result)
            flags = (DEGENERATE_FLAG,) if getattr(result, "degenerate", False) else ()
            if not abs(f) <= MAX_ABS_F:  # also catches NaN
                f, flags = 0.0, (FAILURE_FLAG, NONFINITE_FLAG)
        except Exception:
            f, flags = 0.0, (FAILURE_FLAG,)

        lam = schedule(t, opt.budget)
        variance = 0.0
        if lam > 0 and len(history) >= 2:
            variance = windowed_variance(history, build_g_model(history), (config, f, q))

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


def summarize(f_values) -> dict:
    """A run's metrics from its observed f values: max f and their population variance."""
    fs = np.asarray(f_values, dtype=float)
    if not fs.size:
        raise OptimizerError("cannot summarize an empty run")
    return {"max_f": float(fs.max()), "variance_f": float(np.var(fs))}
