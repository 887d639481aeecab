"""Good/bad Parzen densities over trial history and the density-ratio proposal."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .space import Config, ParamSpace, require_valid

MAX_REJECTION_TRIES = 1000
DENSITY_FLOOR = 1e-300  # keeps far-tail evaluations positive despite underflow
CATEGORICAL_FLOOR = 0.1  # weight of the uniform table mixed into each categorical table
SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)


class SurrogateError(ValueError):
    """Raised for insufficient history or mismatched models."""


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated configuration."""

    step: int
    config: Config
    f_value: float
    j_score: float
    proposal_density: float  # density of config under the model that proposed it
    lambda_used: float
    flags: tuple = ()

    def __post_init__(self):
        if self.proposal_density <= 0:
            raise SurrogateError("proposal_density must be positive")


@dataclass
class History:
    """Append-only ordered record of all evaluated trials."""

    trials: list = field(default_factory=list)

    def append(self, trial: TrialRecord) -> None:
        expected = self.trials[-1].step + 1 if self.trials else 1
        if trial.step != expected:
            raise SurrogateError(f"expected step {expected}, got {trial.step}")
        self.trials.append(trial)

    def __len__(self) -> int:
        return len(self.trials)


@dataclass(frozen=True)
class KdeModel:
    """Parzen mixture over a ParamSpace.

    One kernel component per member config.  Continuous dimensions use
    Gaussian kernels truncated and renormalized to the bounds; integer
    dimensions use Gaussian weights on the integer lattice; categorical
    dimensions share one smoothed frequency table across components.
    Truncation masses and lattice pmfs are precomputed at fit time.
    """

    space: ParamSpace
    centers: tuple  # per dim: component centers (None for categorical)
    bandwidths: dict  # numeric dim index -> float > 0
    categorical_tables: dict  # categorical dim index -> np.ndarray over choices
    n_components: int
    trunc_mass: dict  # continuous dim index -> per-component truncation mass
    lattice_pmf: dict  # integer dim index -> (n_components x lattice) pmf


def top_count(n: int, k: float) -> int:
    """How many of n trials the top-k quantile rule of both density models keeps."""
    return max(2, math.ceil(k * n))


def rank_top(history: History, k: float, score):
    """Trials ranked by descending score, lower step first on ties, and their top_count."""
    n = len(history)
    if n < 2:
        raise SurrogateError("need at least 2 trials to rank")
    if not 0 < k < 1:
        raise SurrogateError("k must lie in (0, 1)")
    ranked = sorted(history.trials, key=lambda t: (-score(t), t.step))
    return ranked, top_count(n, k)


def split_history(history: History, k: float):
    """Partition trials into (good, bad) at the top-k quantile of j_score,
    each group in step order."""
    ranked, n_good = rank_top(history, k, lambda t: t.j_score)
    step = lambda t: t.step
    return sorted(ranked[:n_good], key=step), sorted(ranked[n_good:], key=step)


def _scott_bandwidth(sigma: float, n: int, n_numeric: int, width: float) -> float:
    bw = sigma * n ** (-1.0 / (n_numeric + 4))
    # adaptive minimum keeps proposals diverse when members coincide; without
    # it the search freezes on whatever point the good group collapses to
    return max(bw, width / min(100, n + 1))


def fit_kde(members, space: ParamSpace) -> KdeModel:
    """Fit a Parzen density with one component per member config."""
    if not members:
        raise SurrogateError("cannot fit a KDE on zero members")
    require_valid(space, *members)

    n = len(members)
    columns = list(zip(*(cfg.values for cfg in members)))
    numeric = [i for i, d in enumerate(space.domains) if d.is_numeric]
    block = np.array([columns[i] for i in numeric], dtype=float).reshape(len(numeric), n)
    rows = iter(zip(block, np.std(block, axis=1).tolist()))
    centers, bandwidths, tables, trunc_mass, lattice_pmf = [], {}, {}, {}, {}
    for i, d in enumerate(space.domains):
        if d.is_numeric:
            arr, sigma = next(rows)
            centers.append(arr)
            bandwidths[i] = bw = _scott_bandwidth(sigma, n, len(numeric), d.width())
            if d.kind == "continuous":
                hi_mass = erf((d.hi - arr) / (bw * SQRT2))
                lo_mass = erf((d.lo - arr) / (bw * SQRT2))
                trunc_mass[i] = 0.5 * (hi_mass - lo_mass)
            else:
                lattice = np.arange(int(d.lo), int(d.hi) + 1, dtype=float)
                z = (lattice[None, :] - arr[:, None]) / bw
                w = np.exp(-0.5 * z * z)
                lattice_pmf[i] = w / w.sum(axis=1, keepdims=True)
        else:
            centers.append(None)
            counts = np.array([columns[i].count(c) for c in d.choices], dtype=float)
            empirical = counts / counts.sum()
            uniform = np.full(len(d.choices), 1.0 / len(d.choices))
            tables[i] = (1.0 - CATEGORICAL_FLOOR) * empirical + CATEGORICAL_FLOOR * uniform
    return KdeModel(
        space=space,
        centers=tuple(centers),
        bandwidths=bandwidths,
        categorical_tables=tables,
        n_components=n,
        trunc_mass=trunc_mass,
        lattice_pmf=lattice_pmf,
    )


def density(model: KdeModel, configs) -> np.ndarray:
    """Mixture densities at a list of configs; each strictly positive.

    Kernels form an (n_configs x n_components) array, multiplied one
    dimension at a time in dimension order and averaged over components, so
    each entry equals a one-config call bit for bit.
    """
    require_valid(model.space, *configs)
    per_component = np.ones((len(configs), model.n_components))
    categorical_factor = np.ones(len(configs))
    for i, (d, col) in enumerate(zip(model.space.domains, zip(*(c.values for c in configs)))):
        if d.kind == "continuous":
            bw = model.bandwidths[i]
            z = (np.array(col, dtype=float)[:, None] - model.centers[i]) / bw
            pdf = np.exp(-0.5 * z * z) / (bw * SQRT2PI)
            per_component *= pdf / model.trunc_mass[i]
        elif d.kind == "integer":
            per_component *= model.lattice_pmf[i][:, [int(v) - int(d.lo) for v in col]].T
        else:
            table = model.categorical_tables[i]
            categorical_factor *= table[[d.choices.index(v) for v in col]]
    return np.maximum(per_component.mean(axis=1) * categorical_factor, DENSITY_FLOOR)


def sample_from_kde(model: KdeModel, rng: np.random.Generator, n: int) -> list:
    """Draw n configs in turn: pick a component uniformly, then sample each kernel."""
    cdfs = {}  # built as Generator.choice builds them: same index, same RNG state
    for i, pmf in (*model.lattice_pmf.items(), *model.categorical_tables.items()):
        cdfs[i] = pmf.cumsum(axis=-1)
        cdfs[i] /= cdfs[i][..., -1:]
    draws = []
    for _ in range(n):
        comp = int(rng.integers(model.n_components))
        values = []
        for i, d in enumerate(model.space.domains):
            if d.kind == "continuous":
                center = model.centers[i][comp]
                bw = model.bandwidths[i]
                for _ in range(MAX_REJECTION_TRIES):
                    x = rng.normal(center, bw)
                    if d.lo <= x <= d.hi:
                        break
                else:
                    x = min(max(center, d.lo), d.hi)
                values.append(float(x))
            elif d.kind == "integer":
                values.append(int(d.lo) + int(cdfs[i][comp].searchsorted(rng.random(), side="right")))
            else:
                values.append(d.choices[int(cdfs[i].searchsorted(rng.random(), side="right"))])
        draws.append(Config(tuple(values)))
    return draws


def propose_next(
    history: History,
    space: ParamSpace,
    k: float,
    n_candidates: int,
    rng: np.random.Generator,
):
    """Propose the next config by maximizing the good/bad density ratio.

    Returns (config, proposal_density) where the density is taken under the
    good-group model the candidates were drawn from; the first of tied
    candidates wins.
    """
    if n_candidates < 1:
        raise SurrogateError("need at least one candidate")
    good, bad = split_history(history, k)
    good_model = fit_kde([t.config for t in good], space)
    bad_model = fit_kde([t.config for t in bad], space)
    candidates = sample_from_kde(good_model, rng, n_candidates)
    g = density(good_model, candidates)
    best = int(np.argmax(g / density(bad_model, candidates)))
    return candidates[best], float(g[best])
