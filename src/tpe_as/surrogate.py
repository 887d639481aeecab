"""Good/bad Parzen densities over trial history and the density-ratio proposal."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .space import Config, ParamSpace, decode, encode, require_valid

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
        if not isinstance(self.step, int) or isinstance(self.step, bool):  # a log line can carry true or 1.0
            raise SurrogateError(f"step must be an int, got {self.step!r}")
        if not isinstance(self.flags, tuple) or not all(isinstance(flag, str) for flag in self.flags):
            raise SurrogateError(f"flags must be a tuple of strings, got {self.flags!r}")
        if not (_is_real(self.proposal_density) and 0 < self.proposal_density < math.inf):  # also catches NaN
            raise SurrogateError(f"proposal_density must be positive and finite, got {self.proposal_density!r}")
        for name in ("f_value", "j_score", "lambda_used"):  # a log line can carry NaN or Infinity
            if not (_is_real(value := getattr(self, name)) and math.isfinite(value)):
                raise SurrogateError(f"{name} must be finite, got {value!r}")


def _is_real(value) -> bool:
    """A real number other than a bool: a log line can carry true or "0.5"."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class History:
    """Append-only ordered record of all evaluated trials.  Each config is
    validated on append and encoded once into a row of `rows`, an (n x m)
    float matrix with categoricals as choice indices (`space.encode`), which
    the surrogate fits and scores, beside the f_values and j_scores it ranks.
    An out-of-domain value would silently read another categorical entry or
    a kernel not normalised over its domain, so append keeps this guard."""

    def __init__(self, space: ParamSpace):
        self.space, self.trials = space, []
        self._rows, self._scores = np.empty((64, space.m)), np.empty((64, 2))

    def append(self, trial: TrialRecord) -> None:
        n = len(self.trials)
        if trial.step != n + 1:
            raise SurrogateError(f"expected step {n + 1}, got {trial.step}")
        require_valid(self.space, trial.config)
        if n == len(self._rows):
            self._rows, self._scores = (np.concatenate([a, np.empty_like(a)]) for a in (self._rows, self._scores))
        self._rows[n] = encode(self.space, trial.config)
        self._scores[n] = trial.f_value, trial.j_score
        self.trials.append(trial)

    def __len__(self) -> int:
        return len(self.trials)

    rows = property(lambda self: self._rows[: len(self.trials)])
    f_values = property(lambda self: self._scores[: len(self.trials), 0])
    j_scores = property(lambda self: self._scores[: len(self.trials), 1])


@dataclass(frozen=True)
class KdeModel:
    """Parzen mixture over a ParamSpace, fitted on encoded rows.

    One kernel component per member row.  Numeric dimensions use Gaussian
    kernels exp(-((x - c) / bw)^2 / 2), renormalized to the bounds of a
    continuous dimension and over the lattice of an integer one;
    categorical dimensions share one smoothed frequency table across
    components.  Each component keeps its log normaliser: minus the sum of
    log(bw * sqrt(2 pi) * truncation mass) over continuous dimensions and
    of log Z(c), the kernel's sum over the lattice, over integer ones; each
    integer dimension keeps its kernel's prefix sums, which give every Z(c).
    """

    space: ParamSpace
    centers: tuple  # per dim: component centers (None for categorical)
    bandwidths: dict  # numeric dim index -> float > 0
    categorical_tables: dict  # categorical dim index -> np.ndarray over choices
    n_components: int
    log_norm: np.ndarray  # per component
    lattice_prefix: np.ndarray  # integer dims x offsets -W-1..W, W the widest integer width


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
    order, n_good = rank_top(history.j_scores, k)
    return np.sort(order[:n_good]), np.sort(order[n_good:])


def fit_kde(rows: np.ndarray, space: ParamSpace) -> KdeModel:
    """Fit a Parzen density with one component per row of an encoded
    (members x m) block; the rows come from a History, so they are valid.
    Each lattice sum Z(c) is a difference of two of the model's prefix sums."""
    # imported here, not at module level: scipy.special takes longer to load
    # than numpy, and random search, report and show-space never fit a KDE
    from scipy.special import erf

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
    cont = np.array([space.domains[i].kind == "continuous" for i in numeric], dtype=bool)
    scale = bw[cont] * SQRT2
    mass = 0.5 * (erf((hi[cont] - block[cont]) / scale) - erf((lo[cont] - block[cont]) / scale))
    width, offset = (hi - lo)[~cont].astype(int), (block[~cont] - lo[~cont]).astype(int)
    w = int(width.max(initial=0))
    prefix = np.exp(-0.5 * (np.arange(-w - 1, w + 1) / bw[~cont]) ** 2).cumsum(axis=1)  # to offsets -w-1..w
    dim = np.arange(len(prefix))[:, None]
    lattice_sum = prefix[dim, w + 1 + width - offset] - prefix[dim, w - offset]
    log_norm = -np.log(np.concatenate([bw[cont] * SQRT2PI * mass, lattice_sum])).sum(axis=0)
    centers, tables = tuple(map(dict(zip(numeric, block)).get, range(space.m))), {}
    for i, d in enumerate(space.domains):
        if d.kind == "categorical":
            empirical = np.bincount(rows[:, i].astype(int), minlength=len(d.choices)) / n
            tables[i] = (1.0 - CATEGORICAL_FLOOR) * empirical + CATEGORICAL_FLOOR * (1.0 / len(d.choices))
    return KdeModel(space, centers, dict(zip(numeric, bw[:, 0].tolist())), tables, n, log_norm, prefix)


def density(model: KdeModel, x: np.ndarray) -> np.ndarray:
    """Mixture densities, each strictly positive, at the rows of an encoded block
    from a History or `sample_from_kde`, so not validated again.  With z and c
    the numeric columns of rows and centers centred on the mean center and
    scaled by bandwidth, every component's numeric kernel product,
    log_norm - |z - c|^2 / 2 with |z - c|^2 clamped at 0, comes from one GEMM
    of [z, |z|^2, 1] and [c, -1/2, log_norm - |c|^2 / 2], and takes one `exp`;
    only the categorical tables multiply in after.  Within 1e-12 relative of
    the per-dimension product; a row's last bits may depend on its batch."""
    numeric = list(model.bandwidths)
    bw = np.array(list(model.bandwidths.values()))
    centers = np.array([model.centers[i] for i in numeric]).reshape(len(numeric), model.n_components).T
    mu = centers.mean(axis=0)
    c, z = (centers - mu) / bw, (x[:, numeric] - mu) / bw
    z = np.column_stack([z, (z * z).sum(axis=1), np.ones(len(x))])
    c = np.column_stack([c, np.full(len(c), -0.5), model.log_norm - 0.5 * (c * c).sum(axis=1)])
    per_component = np.exp(np.minimum(z @ c.T, model.log_norm))
    categorical_factor = np.ones(len(x))
    for i, table in model.categorical_tables.items():
        categorical_factor *= table[x[:, i].astype(int)]
    return np.maximum(per_component.mean(axis=1) * categorical_factor, DENSITY_FLOOR)


def sample_from_kde(model: KdeModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n encoded configs into an (n x m) block from three RNG calls, in order:
    `integers(n_components, size=n)` picks each draw's component, `random((n,
    n_cont))` gives the continuous dims' uniforms and `random((n, n_other))` the
    integer and categorical dims', each block's columns in domain order.  A
    continuous uniform u inverts the component's normal truncated to [lo, hi]:
    with a, b = (lo - c) / bw, (hi - c) / bw and M = 1 - Phi(a) - Phi(-b), the
    draw takes the tail where its probability is at most 1/2, z = ndtri(Phi(a) +
    u M) or z = -ndtri(Phi(-b) + (1 - u) M), and c + bw z is clipped into [lo,
    hi].  A categorical uniform is looked up in the table's cumulative sums, as
    `Generator.choice` does.  An integer uniform u is looked up in the model's
    prefix sums as base + u * Z(c), base the sum just below c's lattice window,
    and capped where the window's sum stops growing: in exact arithmetic the cdf
    rule, never a zero-weight value."""
    # imported here for the reason fit_kde imports erf
    from scipy.special import ndtr, ndtri

    domains = model.space.domains
    cont = [i for i, d in enumerate(domains) if d.kind == "continuous"]
    other = [i for i, d in enumerate(domains) if d.kind != "continuous"]
    comps = rng.integers(model.n_components, size=n)
    u = rng.random((n, len(cont)))
    out = np.empty((n, model.space.m))
    out[:, other] = rng.random((n, len(other)))
    lo, hi = np.array([[domains[i].lo, domains[i].hi] for i in cont], dtype=float).reshape(-1, 2).T
    bw = np.array([model.bandwidths[i] for i in cont])
    c = np.array([model.centers[i] for i in cont]).reshape(len(cont), model.n_components)[:, comps].T
    a, b = (lo - c) / bw, (hi - c) / bw
    pa, qb = ndtr(a), ndtr(-b)
    mass = 1.0 - pa - qb  # >= Phi(2) - Phi(0) ~ 0.477, as bw <= (hi - lo) / 2
    p = pa + u * mass
    z = np.where(p <= 0.5, ndtri(p), -ndtri(qb + (1.0 - u) * mass))
    out[:, cont] = np.clip(c + bw * z, lo, hi)
    for i, table in model.categorical_tables.items():
        cdf = table.cumsum()
        out[:, i] = (cdf / cdf[-1]).searchsorted(out[:, i], side="right")
    for prefix, (i, d) in zip(model.lattice_prefix, [(i, d) for i, d in enumerate(domains) if d.kind == "integer"]):
        below = len(prefix) // 2 - 1 - (model.centers[i][comps] - d.lo).astype(int)  # prefix index below the window
        base, top = prefix[below], prefix[below + int(d.hi - d.lo) + 1]
        pick = prefix.searchsorted(base + out[:, i] * (top - base), side="right")
        out[:, i] = np.minimum(pick, prefix.searchsorted(top, side="left")) - below - 1 + d.lo
    return out


def propose_next(history: History, k: float, n_candidates: int, rng: np.random.Generator):
    """Propose the next config in history's space by maximizing the good/bad density ratio.

    Returns (config, proposal_density) where the density is taken under the
    good-group model the candidates were drawn from; the first of tied
    candidates wins, and only it is decoded to a Config.
    """
    if n_candidates < 1:
        raise SurrogateError("need at least one candidate")
    good, bad = split_history(history, k)
    good_model = fit_kde(history.rows[good], history.space)
    bad_model = fit_kde(history.rows[bad], history.space)
    candidates = sample_from_kde(good_model, rng, n_candidates)
    g = density(good_model, candidates)
    best = int(np.argmax(g / density(bad_model, candidates)))
    return decode(history.space, candidates[best]), float(g[best])
