"""Good/bad Parzen densities over trial history and the density-ratio proposal."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from scipy.special import erf

from .space import Config, ParamSpace, decode, encode, require_valid

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


class History:
    """Append-only ordered record of all evaluated trials.  Each config is
    validated on append and encoded once into a row of `rows`, an (n x m)
    float matrix with categoricals as choice indices (`space.encode`), which
    the surrogate fits and scores; only the trial records hold Configs.  The
    surrogate indexes tables by encoded value, where an out-of-domain integer
    would silently read another lattice column, so append keeps this guard."""

    def __init__(self, space: ParamSpace):
        self.space = space
        self.trials = []
        self._rows = np.empty((64, space.m))

    def append(self, trial: TrialRecord) -> None:
        n = len(self.trials)
        if trial.step != n + 1:
            raise SurrogateError(f"expected step {n + 1}, got {trial.step}")
        require_valid(self.space, trial.config)
        if n == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[n] = encode(self.space, trial.config)
        self.trials.append(trial)

    def __len__(self) -> int:
        return len(self.trials)

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: len(self.trials)]


@dataclass(frozen=True)
class KdeModel:
    """Parzen mixture over a ParamSpace, fitted on encoded rows.

    One kernel component per member row.  Continuous dimensions use
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


def rank_top(scores: np.ndarray, k: float):
    """Trial indices ranked by descending score, lower step first on ties, and their top_count."""
    n = len(scores)
    if n < 2:
        raise SurrogateError("need at least 2 trials to rank")
    if not 0 < k < 1:
        raise SurrogateError("k must lie in (0, 1)")
    return np.argsort(-scores, kind="stable"), top_count(n, k)


def split_history(history: History, k: float):
    """Partition trial indices into (good, bad) at the top-k quantile of
    j_score, each group in step order."""
    order, n_good = rank_top(np.array([t.j_score for t in history.trials]), k)
    return np.sort(order[:n_good]), np.sort(order[n_good:])


def fit_kde(rows: np.ndarray, space: ParamSpace) -> KdeModel:
    """Fit a Parzen density with one component per row of an encoded
    (members x m) block.  The rows come from a History, so they are valid."""
    n = len(rows)
    if not n:
        raise SurrogateError("cannot fit a KDE on zero members")
    numeric = [i for i, d in enumerate(space.domains) if d.is_numeric]
    block = np.ascontiguousarray(rows[:, numeric].T)  # each sigma reduces one contiguous row
    lo, hi = np.array([[space.domains[i].lo, space.domains[i].hi] for i in numeric]).T.reshape(2, -1, 1)
    # Scott's rule with an adaptive minimum, which keeps proposals diverse when
    # members coincide; without it the search freezes on whatever point the good group collapses to
    scott = np.std(block, axis=1, keepdims=True) * n ** (-1.0 / (len(numeric) + 4))
    bw = np.maximum(scott, (hi - lo) / min(100, n + 1))
    cont = [space.domains[i].kind == "continuous" for i in numeric]
    scale = bw[cont] * SQRT2
    mass = 0.5 * (erf((hi[cont] - block[cont]) / scale) - erf((lo[cont] - block[cont]) / scale))
    trunc_mass = dict(zip(np.compress(cont, numeric).tolist(), mass))
    bandwidths = dict(zip(numeric, bw[:, 0].tolist()))
    centers, tables, lattice_pmf = [None] * space.m, {}, {}
    for i, arr in zip(numeric, block):
        centers[i], d = arr, space.domains[i]
        if d.kind == "integer":
            # a pmf row depends only on bw and the member's value: build one
            # (lattice x lattice) table and gather each member's row from it
            lattice = np.arange(int(d.lo), int(d.hi) + 1, dtype=float)
            z = (lattice[None, :] - lattice[:, None]) / bandwidths[i]
            w = np.exp(-0.5 * z * z)
            lattice_pmf[i] = (w / w.sum(axis=1, keepdims=True))[(arr - d.lo).astype(int)]
    for i, d in enumerate(space.domains):
        if d.kind == "categorical":
            empirical = np.bincount(rows[:, i].astype(int), minlength=len(d.choices)) / n
            tables[i] = (1.0 - CATEGORICAL_FLOOR) * empirical + CATEGORICAL_FLOOR * (1.0 / len(d.choices))
    return KdeModel(space, tuple(centers), bandwidths, tables, n, trunc_mass, lattice_pmf)


def density(model: KdeModel, x: np.ndarray) -> np.ndarray:
    """Mixture densities, each strictly positive, at the rows of an encoded block
    from a History or `sample_from_kde`, so not validated again.  With z and c
    the rows and centers centred on the mean center and scaled by bandwidth,
    every continuous log kernel, log_norm - |z - c|^2 / 2 with |z - c|^2
    clamped at 0, comes from one GEMM of [z, |z|^2, 1] and
    [c, -1/2, log_norm - |c|^2 / 2], and takes one `exp`; lattice pmfs and
    categorical tables multiply in after.  Within 1e-12 relative of the
    per-dimension product; a row's last bits may depend on its batch."""
    domains = model.space.domains
    cont = [i for i, d in enumerate(domains) if d.kind == "continuous"]
    bw = np.array([model.bandwidths[i] for i in cont])
    centers = np.array([model.centers[i] for i in cont]).reshape(len(cont), model.n_components).T
    mu = centers.mean(axis=0)
    c, z = (centers - mu) / bw, (x[:, cont] - mu) / bw
    log_norm = -np.log(bw * SQRT2PI).sum() - np.log([model.trunc_mass[i] for i in cont]).sum(axis=0)
    z = np.column_stack([z, (z * z).sum(axis=1), np.ones(len(x))])
    c = np.column_stack([c, np.full(len(c), -0.5), log_norm - 0.5 * (c * c).sum(axis=1)])
    per_component = np.exp(np.minimum(z @ c.T, log_norm))
    categorical_factor = np.ones(len(x))
    for i, d in enumerate(domains):
        if d.kind == "integer":
            per_component *= model.lattice_pmf[i][:, (x[:, i] - d.lo).astype(int)].T
        elif d.kind == "categorical":
            categorical_factor *= model.categorical_tables[i][x[:, i].astype(int)]
    return np.maximum(per_component.mean(axis=1) * categorical_factor, DENSITY_FLOOR)


def sample_from_kde(model: KdeModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n encoded configs into an (n x m) block on the RNG stream of one config
    at a time: `integers` picks a component, then each dimension in order takes
    `normal` draws until one is in bounds, or one `random()` looked up after the
    loop in a cumulative pmf, as `Generator.choice` does.  Draws are batched on
    that stream: a run of adjacent continuous dims takes one `standard_normal(size)`,
    used in order as `c + bw * z` (the bits of `normal(c, bw)`) before any scalar
    retry draw, and a run of other dims one `random(size)`."""
    domains, runs = model.space.domains, []
    for cont, dims in groupby(range(model.space.m), lambda i: domains[i].kind == "continuous"):
        dims = list(dims)
        centers = np.array([model.centers[i] for i in dims]).T.tolist() if cont else None  # per component
        runs.append((len(dims), centers, [(model.bandwidths.get(i), domains[i].lo, domains[i].hi) for i in dims]))
    integers, standard_normal, random = rng.integers, rng.standard_normal, rng.random
    comps, draws = [], []
    for _ in range(n):
        comp = integers(model.n_components)
        comps.append(comp)
        row = []
        for size, centers, kernels in runs:
            if centers is None:
                row += random(size).tolist()
                continue
            z = standard_normal(size).tolist()[::-1]  # popped in draw order
            for center, (bw, lo, hi) in zip(centers[comp], kernels):
                for _ in range(MAX_REJECTION_TRIES):
                    x = center + bw * (z.pop() if z else standard_normal())
                    if lo <= x <= hi:
                        break
                else:
                    x = min(max(center, lo), hi)
                row.append(x)
        draws.append(row)
    out = np.array(draws, dtype=float).reshape(n, model.space.m)
    for i, d in enumerate(domains):
        if d.kind != "continuous":
            pmf = model.lattice_pmf[i][comps] if d.kind == "integer" else model.categorical_tables[i]
            cdf = pmf.cumsum(axis=-1)
            cdf /= cdf[..., -1:]
            out[:, i] = (cdf <= out[:, i, None]).sum(axis=1) + (d.lo if d.kind == "integer" else 0)
    return out


def propose_next(
    history: History, space: ParamSpace, k: float, n_candidates: int, rng: np.random.Generator
):
    """Propose the next config by maximizing the good/bad density ratio.

    Returns (config, proposal_density) where the density is taken under the
    good-group model the candidates were drawn from; the first of tied
    candidates wins, and only it is decoded to a Config.
    """
    if n_candidates < 1:
        raise SurrogateError("need at least one candidate")
    good, bad = split_history(history, k)
    good_model = fit_kde(history.rows[good], space)
    bad_model = fit_kde(history.rows[bad], space)
    candidates = sample_from_kde(good_model, rng, n_candidates)
    g = density(good_model, candidates)
    best = int(np.argmax(g / density(bad_model, candidates)))
    return decode(space, candidates[best]), float(g[best])
