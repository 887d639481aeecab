"""Bounded mixed hyperparameter domains and points within them."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

Value = Union[float, int, str]


class SpaceError(ValueError):
    """Raised for malformed domains or configs."""


@dataclass(frozen=True)
class ParamDomain:
    """One coordinate of the search domain.

    kind is one of "continuous", "integer", "categorical".  Continuous and
    integer domains carry closed bounds [lo, hi]; categorical domains carry
    an ordered tuple of choice labels.
    """

    name: str
    kind: str
    lo: float = 0.0
    hi: float = 0.0
    choices: tuple = ()

    def __post_init__(self):
        if self.kind in ("continuous", "integer"):
            if not self.lo < self.hi:
                raise SpaceError(f"{self.name}: lo must be strictly below hi")
            if self.kind == "integer" and (
                int(self.lo) != self.lo or int(self.hi) != self.hi
            ):
                raise SpaceError(f"{self.name}: integer bounds must be whole")
        elif self.kind == "categorical":
            if len(self.choices) < 2 or len(set(self.choices)) != len(self.choices):
                raise SpaceError(f"{self.name}: need >= 2 distinct choices")
        else:
            raise SpaceError(f"{self.name}: unknown kind {self.kind!r}")

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("continuous", "integer")

    def contains(self, value: Value) -> bool:
        if self.kind == "categorical":
            return value in self.choices
        numbers = (int, float) if self.kind == "continuous" else (int, np.integer)
        return isinstance(value, numbers) and not isinstance(value, bool) and self.lo <= value <= self.hi


@dataclass(frozen=True)
class ParamSpace:
    """Ordered collection of domains; the search space."""

    domains: tuple

    def __post_init__(self):
        if len(self.domains) < 1:
            raise SpaceError("space needs at least one domain")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise SpaceError("domain names must be unique")

    @property
    def m(self) -> int:
        return len(self.domains)

    def to_json(self) -> str:
        docs = []
        for d in self.domains:
            if d.kind == "categorical":
                docs.append({"name": d.name, "kind": d.kind, "choices": list(d.choices)})
            else:
                docs.append({"name": d.name, "kind": d.kind, "lo": d.lo, "hi": d.hi})
        return json.dumps(docs, indent=2)


@dataclass(frozen=True)
class Config:
    """A point in a ParamSpace: one value per domain, in domain order."""

    values: tuple

    def as_dict(self, space: ParamSpace) -> dict:
        return {d.name: v for d, v in zip(space.domains, self.values)}

    @classmethod
    def from_dict(cls, space: ParamSpace, doc: dict) -> "Config":
        if unknown := sorted(map(repr, set(doc) - {d.name for d in space.domains})):
            raise SpaceError(f"unknown keys for this space: {', '.join(unknown)}")
        if missing := [d.name for d in space.domains if d.name not in doc]:
            raise SpaceError(f"missing value for {missing[0]}")
        return cls(tuple(doc[d.name] for d in space.domains))  # each value as read: require_valid judges it


def require_valid(space: ParamSpace, config: Config) -> None:
    """Raise SpaceError naming every bad coordinate of config."""
    if len(config.values) != space.m:
        raise SpaceError(f"<space>: expected {space.m} values, got {len(config.values)}")
    bad = [
        f"{d.name}: value {v!r} outside {d.kind} domain"
        for d, v in zip(space.domains, config.values)
        if not d.contains(v)
    ]
    if bad:
        raise SpaceError("; ".join(bad))


def encode(space: ParamSpace, config: Config) -> list:
    """A valid config's values in domain order, each categorical as its choice index."""
    return [
        d.choices.index(v) if d.kind == "categorical" else v
        for d, v in zip(space.domains, config.values)
    ]


def decode(space: ParamSpace, row) -> Config:
    """The config an encoded row stands for."""
    return Config(tuple(
        float(x) if d.kind == "continuous" else int(x) if d.kind == "integer" else d.choices[int(x)]
        for d, x in zip(space.domains, row)
    ))


def sample_uniform(space: ParamSpace, rng: np.random.Generator) -> Config:
    """Draw each coordinate independently uniform over its domain."""
    values = []
    for d in space.domains:
        if d.kind == "continuous":
            values.append(float(rng.uniform(d.lo, d.hi)))
        elif d.kind == "integer":
            values.append(int(rng.integers(int(d.lo), int(d.hi) + 1)))
        else:
            values.append(d.choices[int(rng.integers(len(d.choices)))])
    return Config(tuple(values))


def uniform_density(space: ParamSpace) -> float:
    """Joint density of a uniform draw over the whole space."""
    out = 1.0
    for d in space.domains:
        size = (d.hi - d.lo if d.kind == "continuous"
                else int(d.hi) - int(d.lo) + 1 if d.kind == "integer" else len(d.choices))
        out *= 1.0 / size  # not out /= size, which rounds differently
    return out
