"""Adaptive penalty schedule, clipped importance weights, and the objective score."""

from __future__ import annotations

import math

import numpy as np

from .space import encode
from .surrogate import History, KdeModel, density, fit_kde, rank_top  # noqa: F401  bench/ traces objective.fit_kde

EPSILON = 0.2  # importance-weight clip
WINDOW = 20  # trials in the windowed variance
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
    if not (0 < g_density < math.inf and 0 < q_density < math.inf):  # also catches NaN
        raise ObjectiveError(f"densities must be positive and finite, got {g_density!r} and {q_density!r}")
    if not 0 <= epsilon <= MAX_EPSILON:  # also catches NaN
        raise ObjectiveError(f"epsilon must be a finite number in [0, {MAX_EPSILON:g}], got {epsilon!r}")
    ratio = g_density / q_density
    return min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)


def windowed_variance(history: History, g_model: KdeModel, current) -> float:
    """Population variance of f values, clip-weighted at EPSILON, over the trailing window.

    `current` is a (config, f_value, proposal_density) triple for the trial
    being scored, its config already validated; the window covers the last
    min(WINDOW, available) trials including it, scored as encoded rows.
    """
    entries = [(t.f_value, t.proposal_density) for t in history.trials[1 - WINDOW:]] + [current[1:]]
    g = density(g_model, np.vstack([history.rows[1 - WINDOW:], encode(history.space, current[0])]))
    weighted = [importance_weight(gi, qi, EPSILON) * fi for gi, (fi, qi) in zip(g, entries)]
    return float(np.var(weighted))


def lagrangian_score(f_value: float, variance: float, lambda_t: float) -> float:
    """Penalized objective: performance minus lambda-weighted variance."""
    if variance < 0:
        raise ObjectiveError("variance must be nonnegative")
    return f_value - lambda_t * variance


def build_g_model(history: History) -> KdeModel:
    """KDE over the configs of the top-K trials (`surrogate.K`) ranked by raw f value.

    Approximates the distribution of high-quality configurations; refreshed
    every optimizer step, and refitted only when the top list changes.
    """
    ranked, n_top = rank_top(history.f_values)
    return history.fit(ranked[:n_top])  # rank order fixes component order
