import numpy as np
import pytest

from tpe_as.space import Config, ParamDomain, ParamSpace, encode, sample_uniform


@pytest.fixture
def unit_space():
    return ParamSpace((ParamDomain("x", "continuous", 0.0, 1.0),))


@pytest.fixture
def mixed_space():
    return ParamSpace(
        (
            ParamDomain("x", "continuous", 0.0, 1.0),
            ParamDomain("n", "integer", 1, 10),
            ParamDomain("c", "categorical", choices=("A", "B", "C")),
        )
    )


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
