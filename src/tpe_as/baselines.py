"""Comparison methods: configurations of the optimizer's loop."""

from __future__ import annotations

from typing import Callable

from .optimizer import OptimizerConfig, run
from .space import Config, ParamSpace, sample_uniform, uniform_density
from .surrogate import History

BASELINE_KINDS = ("tpe_conventional", "random_search")


def propose_uniform(history, rng):
    """A proposer that ignores the history but its space: one uniform draw."""
    return sample_uniform(history.space, rng), uniform_density(history.space)


def run_baseline(
    kind: str,
    opt: OptimizerConfig,
    blackbox: Callable[[Config], float],
    space: ParamSpace,
) -> History:
    """The zero schedule, with uniform proposals (random_search) or TPE ones (tpe_conventional)."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    propose = propose_uniform if kind == "random_search" else None
    return run(opt, blackbox, space, schedule=lambda t, eta: 0.0, propose=propose)
