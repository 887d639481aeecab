import json

import numpy as np
import pytest

from tpe_as import cli
from tpe_as.blackbox import strategy_preset
from tpe_as.space import (
    Config,
    ParamDomain,
    ParamSpace,
    SpaceError,
    require_valid,
    sample_uniform,
    uniform_density,
)

from conftest import random_space


def test_interior_point_is_valid(unit_space):
    require_valid(unit_space, Config((0.5,)))


def test_out_of_bounds_reported(unit_space, mixed_space):
    with pytest.raises(SpaceError, match=r"^x: value 1\.5 outside continuous domain$"):
        require_valid(unit_space, Config((1.5,)))
    # every bad coordinate is named, in domain order
    with pytest.raises(
        SpaceError,
        match=r"^x: value -1 outside continuous domain; c: value 'D' outside categorical domain$",
    ):
        require_valid(mixed_space, Config((-1, 5, "D")))


def test_length_mismatch_is_distinct_violation():
    space = ParamSpace(
        (ParamDomain("a", "continuous", 0, 1), ParamDomain("b", "continuous", 0, 1))
    )
    with pytest.raises(SpaceError, match=r"^<space>: expected 2 values, got 1$"):
        require_valid(space, Config((0.5,)))


def test_degenerate_bounds_rejected():
    for build, message in [
        (lambda: ParamDomain("a", "continuous", 1.0, 1.0), "a: lo must be strictly below hi"),
        (lambda: ParamDomain("n", "integer", 0, 2.5), "n: integer bounds must be whole"),
        (lambda: ParamDomain("c", "categorical", choices=("only",)), "c: need >= 2 distinct choices"),
        (lambda: ParamDomain("c", "categorical", choices=("x", "x")), "c: need >= 2 distinct choices"),
        (lambda: ParamDomain("o", "ordinal"), "o: unknown kind 'ordinal'"),
        (lambda: ParamSpace(()), "space needs at least one domain"),
    ]:
        with pytest.raises(SpaceError, match=f"^{message}$"):
            build()


def test_duplicate_names_rejected():
    with pytest.raises(SpaceError):
        ParamSpace(
            (ParamDomain("a", "continuous", 0, 1), ParamDomain("a", "integer", 0, 5))
        )


def test_sample_uniform_validates(mixed_space, rng):
    for _ in range(100):
        require_valid(mixed_space, sample_uniform(mixed_space, rng))


def test_sample_uniform_fuzz_random_spaces(rng):
    for _ in range(50):
        space = random_space(rng)
        cfg = sample_uniform(space, rng)
        require_valid(space, cfg)


def test_equal_seeds_equal_draws(mixed_space):
    a = [sample_uniform(mixed_space, np.random.default_rng(7)) for _ in range(5)]
    b = [sample_uniform(mixed_space, np.random.default_rng(7)) for _ in range(5)]
    assert a == b


def test_categorical_frequencies_within_3_sigma():
    # binomial bound: p=0.5, n=10000, 3 sigma -> [0.47, 0.53]
    space = ParamSpace((ParamDomain("c", "categorical", choices=("A", "B")),))
    rng = np.random.default_rng(0)
    draws = [sample_uniform(space, rng).values[0] for _ in range(10_000)]
    freq_a = draws.count("A") / len(draws)
    assert 0.47 <= freq_a <= 0.53
    assert 0.47 <= 1 - freq_a <= 0.53


def test_integer_bounds_inclusive():
    space = ParamSpace((ParamDomain("n", "integer", 0, 2),))
    rng = np.random.default_rng(1)
    seen = {sample_uniform(space, rng).values[0] for _ in range(200)}
    assert seen == {0, 1, 2}


def test_uniform_density(mixed_space):
    assert uniform_density(mixed_space) == pytest.approx(1.0 * (1 / 10) * (1 / 3))


def test_space_json_round_trip(capsys):
    assert cli.main(["show-space", "threshold_hybrid"]) == 0
    docs = json.loads(capsys.readouterr().out)
    shown = [
        ParamDomain(doc["name"], doc["kind"], doc.get("lo", 0.0), doc.get("hi", 0.0),
                    tuple(doc.get("choices", ())))
        for doc in docs
    ]
    assert shown == list(strategy_preset("threshold_hybrid").param_space.domains)


def test_config_json_round_trip(mixed_space, rng):
    cfg = sample_uniform(mixed_space, rng)
    doc = cfg.as_dict(mixed_space)
    assert Config.from_dict(mixed_space, doc) == cfg
