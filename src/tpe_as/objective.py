"""Adaptive penalty schedule, clipped importance weights, and the objective score."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import ParamSpace
from .surrogate import History, KdeModel, SurrogateError, density, fit_kde


class ObjectiveError(ValueError):
    """Raised for invalid schedule or weight arguments."""


@dataclass(frozen=True)
class ScheduleState:
    """Knobs of the adaptive objective: budget, step, clip radius, window."""

    budget: int
    step: int
    epsilon: float = 0.2
    window: int = 20

    def __post_init__(self):
        if self.budget < 1 or not 1 <= self.step:
            raise ObjectiveError("budget and step must be positive")
        if self.epsilon < 0:
            raise ObjectiveError("epsilon must be nonnegative")
        if self.window < 2:
            raise ObjectiveError("window must be at least 2")


@dataclass(frozen=True)
class WindowStats:
    """Weighted values over the trailing window and their population variance."""

    weighted_values: tuple
    variance: float


def lambda_schedule(t: int, eta: int) -> float:
    """Cosine ramp of the variance penalty from ~0 at t=1 to 1 at t=eta."""
    if t < 1 or eta < 1:
        raise ObjectiveError("t and eta must be positive")
    if t >= eta:
        return 1.0
    return (1.0 - math.cos(t * math.pi / eta)) / 2.0


def importance_weight(g_density: float, q_density: float, epsilon: float) -> float:
    """Clipped ratio of target density over proposal density."""
    if g_density <= 0 or q_density <= 0:
        raise ObjectiveError("densities must be positive")
    if epsilon < 0:
        raise ObjectiveError("epsilon must be nonnegative")
    ratio = g_density / q_density
    return min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)


def windowed_variance(
    history: History,
    g_model: KdeModel,
    state: ScheduleState,
    current,
) -> WindowStats:
    """Population variance of clip-weighted f values over the trailing window.

    `current` is a (config, f_value, proposal_density) triple for the trial
    being scored; the window covers the last min(W, available) trials
    including it.  Fewer than 2 entries gives variance 0.
    """
    config, f_value, proposal_density = current
    tail = history.trials[-(state.window - 1):] if state.window > 1 else []
    entries = [(t.config, t.f_value, t.proposal_density) for t in tail]
    entries.append((config, f_value, proposal_density))
    entries = entries[-state.window:]

    weighted = []
    for cfg, f, q in entries:
        w = importance_weight(density(g_model, cfg), q, state.epsilon)
        weighted.append(w * f)
    if len(weighted) < 2:
        return WindowStats(tuple(weighted), 0.0)
    return WindowStats(tuple(weighted), float(np.var(weighted)))


def lagrangian_score(f_value: float, variance: float, lambda_t: float) -> float:
    """Penalized objective: performance minus lambda-weighted variance."""
    if variance < 0:
        raise ObjectiveError("variance must be nonnegative")
    return f_value - lambda_t * variance


def build_g_model(history: History, k: float, space: ParamSpace) -> KdeModel:
    """KDE over the configs of the top-k trials ranked by raw f value.

    Approximates the distribution of high-quality configurations; refreshed
    every optimizer step.
    """
    n = len(history)
    if n < 2:
        raise SurrogateError("need at least 2 trials to build the target model")
    n_top = max(2, math.ceil(k * n))
    ranked = sorted(history.trials, key=lambda t: (-t.f_value, t.step))
    return fit_kde([t.config for t in ranked[:n_top]], space)
