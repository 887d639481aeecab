import functools

import numpy as np
import pytest

from tpe_as.optimizer import OptimizerConfig, run
from tpe_as.space import ParamDomain, ParamSpace, encode

SPACE_2D = ParamSpace((ParamDomain("x1", "continuous", 0.0, 1.0), ParamDomain("x2", "continuous", 0.0, 1.0)))
MIXED_SPACE = ParamSpace((
    ParamDomain("x", "continuous", 0.0, 1.0),
    ParamDomain("n", "integer", 1, 10),
    ParamDomain("c", "categorical", choices=("A", "B", "C")),
))


@pytest.fixture
def unit_space():
    return ParamSpace((ParamDomain("x", "continuous", 0.0, 1.0),))


@pytest.fixture
def mixed_space():
    return MIXED_SPACE


@pytest.fixture
def space_2d():
    return SPACE_2D


def quadratic(cfg):
    """A smooth objective on SPACE_2D whose maximum, 0, lies at (0.3, 0.7)."""
    return -((cfg.values[0] - 0.3) ** 2) - (cfg.values[1] - 0.7) ** 2


@functools.cache
def adaptive_quadratic_search(seed):
    """The default budget-200 search of `quadratic`, run once per seed and shared; do not append to it."""
    return run(OptimizerConfig(budget=200, seed=seed), quadratic, SPACE_2D)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def encoded(space, configs):
    """Configs as the (n x m) row block that the surrogate fits and scores."""
    return np.array([encode(space, c) for c in configs], dtype=float).reshape(len(configs), space.m)


def random_space(rng, max_dims=4, max_width=30):
    """A random mixed space for fuzzing; integer lattices hold up to max_width values."""
    domains = []
    n = int(rng.integers(1, max_dims + 1))
    for i in range(n):
        kind = rng.choice(["continuous", "integer", "categorical"])
        if kind == "continuous":
            lo = float(rng.uniform(-10, 5))
            domains.append(ParamDomain(f"p{i}", "continuous", lo, lo + float(rng.uniform(0.5, 10))))
        elif kind == "integer":
            lo = int(rng.integers(-20, 10))
            domains.append(ParamDomain(f"p{i}", "integer", lo, lo + int(rng.integers(1, max_width))))
        else:
            n_choices = int(rng.integers(2, 6))
            domains.append(
                ParamDomain(f"p{i}", "categorical", choices=tuple(f"c{j}" for j in range(n_choices)))
            )
    return ParamSpace(tuple(domains))
