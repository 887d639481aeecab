"""Adaptive penalty schedule, clipped importance weights, and the objective score."""

from __future__ import annotations

import math

import numpy as np

from .space import encode
from .surrogate import History, KdeModel, density, fit_kde, rank_top

MAX_EPSILON = 1e6  # clip-weighted f values then stay within 1e106, whose variance cannot overflow


class ObjectiveError(ValueError):
    """Raised for invalid schedule or weight arguments."""


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
    if not 0 <= epsilon <= MAX_EPSILON:  # also catches NaN
        raise ObjectiveError(f"epsilon must be a finite number in [0, {MAX_EPSILON:g}], got {epsilon!r}")
    ratio = g_density / q_density
    return min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)


def windowed_variance(
    history: History, g_model: KdeModel, current, epsilon: float, window: int
) -> float:
    """Population variance of clip-weighted f values over the trailing window.

    `current` is a (config, f_value, proposal_density) triple for the trial
    being scored, its config already validated; the window covers the last
    min(window, available) trials including it, scored as encoded rows.
    """
    if window < 2:
        raise ObjectiveError("window must be at least 2")
    entries = [(t.f_value, t.proposal_density) for t in history.trials[1 - window:]] + [current[1:]]
    g = density(g_model, np.vstack([history.rows[1 - window:], encode(history.space, current[0])]))
    weighted = [importance_weight(gi, qi, epsilon) * fi for gi, (fi, qi) in zip(g, entries)]
    return float(np.var(weighted))


def lagrangian_score(f_value: float, variance: float, lambda_t: float) -> float:
    """Penalized objective: performance minus lambda-weighted variance."""
    if variance < 0:
        raise ObjectiveError("variance must be nonnegative")
    return f_value - lambda_t * variance


def build_g_model(history: History, k: float) -> KdeModel:
    """KDE over the configs of the top-k trials ranked by raw f value.

    Approximates the distribution of high-quality configurations; refreshed
    every optimizer step.
    """
    ranked, n_top = rank_top(history.f_values, k)
    return fit_kde(history.rows[ranked[:n_top]], history.space)  # rank order fixes component order
