"""Comparison methods: configurations of the optimizer's loop."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .optimizer import OptimizerConfig, run
from .space import Config, ParamSpace, sample_uniform, uniform_density
from .surrogate import History

BASELINE_KINDS = ("tpe_conventional", "random_search")


def propose_uniform(history, k, n_candidates, rng):
    """A proposer that ignores the history but its space: one uniform draw."""
    return sample_uniform(history.space, rng), uniform_density(history.space)


def run_baseline(
    kind: str,
    opt: OptimizerConfig,
    blackbox: Callable[[Config], float],
    space: ParamSpace,
) -> History:
    """random_search: all trials uniform; tpe_conventional: lambda-free TPE."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    conv = replace(opt, mode="conventional")
    if kind == "random_search":
        return run(conv, blackbox, space, propose=propose_uniform)
    return run(conv, blackbox, space)
