"""Good/bad Parzen densities over trial history and the density-ratio proposal."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .space import Config, ParamSpace, decode, encode, require_valid

DENSITY_FLOOR = 1e-300  # keeps far-tail evaluations positive despite underflow
CATEGORICAL_FLOOR = 0.1  # weight of the uniform table mixed into each categorical table
SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)
K = 0.15  # share of top trials that the good density and the g-model fit
N_CANDIDATES = 64  # candidates scored per TPE proposal


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
        if not (_is_real(self.proposal_density) and 0 < self.proposal_density <= sys.float_info.max):  # also catches NaN
            raise SurrogateError(f"proposal_density must be positive and finite, got {self.proposal_density!r}")
        for name in ("f_value", "j_score", "lambda_used"):  # a log line can carry NaN, Infinity or an int beyond float range
            if not (_is_real(value := getattr(self, name)) and abs(value) <= sys.float_info.max):
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
        self._fits = (0, {}, {})  # (length, fits at it, fits at the length before; no older), by member bytes

    def __getstate__(self):  # a History a worker returns leaves its fits behind
        return {**self.__dict__, "_fits": (0, {}, {})}

    def fit(self, members: np.ndarray) -> KdeModel:
        """fit_kde of the rows at index array `members`, whose order fixes the
        component order.  Rows never change and a fit is deterministic, so a
        list fitted at this length or at the last one fitted at returns that fit."""
        if self._fits[0] != len(self.trials):
            self._fits = len(self.trials), {}, self._fits[1]
        _, fits, last = self._fits
        key = members.tobytes()
        if key not in fits:
            fits[key] = last.get(key) or fit_kde(self.rows[members], self.space)
        return fits[key]

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
    A model builds the arrays `density` and `sample_from_kde` read at its first call of each.
    """

    space: ParamSpace
    centers: tuple  # per dim: component centers (None for categorical)
    bandwidths: dict  # numeric dim index -> float > 0
    categorical_tables: dict  # categorical dim index -> np.ndarray over choices
    n_components: int
    log_norm: np.ndarray  # per component
    lattice_prefix: np.ndarray  # integer dims x offsets -W-1..W, W the widest integer width

    @cached_property
    def _score_arrays(self):
        """density's numeric columns, mean center and bandwidths, and its GEMM operand
        [c, -1/2, log_norm - |c|^2 / 2] of the centred, bandwidth-scaled centers c."""
        numeric = list(self.bandwidths)
        bw = np.array(list(self.bandwidths.values()))
        centers = np.array([self.centers[i] for i in numeric]).reshape(len(numeric), self.n_components).T
        mu = centers.mean(axis=0)
        c = (centers - mu) / bw
        return numeric, mu, bw, np.column_stack([c, np.full(len(c), -0.5), self.log_norm - 0.5 * (c * c).sum(1)])

    @cached_property
    def _draw_arrays(self):
        """sample_from_kde's column lists and bounds; per continuous (component, dim) its center, Phi(a),
        Phi(-b) and mass; each categorical cdf; per integer (dim, component) the prefix index below the
        lattice window, the sum there, Z(c), and the first index where the window's sum stops growing."""
        from scipy.special import ndtr  # imported here for the reason fit_kde imports erf

        domains = self.space.domains
        cont, ints = ([i for i, d in enumerate(domains) if d.kind == kind] for kind in ("continuous", "integer"))
        other = [i for i, d in enumerate(domains) if d.kind != "continuous"]
        lo, hi = np.array([[domains[i].lo, domains[i].hi] for i in cont], dtype=float).reshape(-1, 2).T
        bw = np.array([self.bandwidths[i] for i in cont])
        c = np.array([self.centers[i] for i in cont]).reshape(len(cont), self.n_components).T
        pa, qb = ndtr((lo - c) / bw), ndtr(-((hi - c) / bw))
        cdfs = {i: table.cumsum() / table.cumsum()[-1] for i, table in self.categorical_tables.items()}
        int_lo, width = np.array([[domains[i].lo, domains[i].hi - domains[i].lo] for i in ints]).reshape(-1, 2).T
        offset = np.array([self.centers[i] for i in ints]).reshape(len(ints), self.n_components) - int_lo[:, None]
        prefix = self.lattice_prefix
        below = prefix.shape[1] // 2 - 1 - offset.astype(int)  # W - offset: the index below each window
        base, top = (np.take_along_axis(prefix, i, axis=1) for i in (below, below + width.astype(int)[:, None] + 1))
        cap = np.array([row.searchsorted(t, side="left") for row, t in zip(prefix, top)]).reshape(below.shape)
        per_component = np.stack([c, pa, qb, 1.0 - pa - qb])
        return cont, other, ints, lo, hi, bw, per_component, cdfs, (int_lo[:, None], below, base, top - base, cap)


def top_count(n: int) -> int:
    """How many of n trials the top-K quantile rule of both density models keeps."""
    return max(2, math.ceil(K * n))


def rank_top(scores: np.ndarray):
    """Trial indices ranked by descending score, lower step first on ties, and their top_count."""
    n = len(scores)
    if n < 2:
        raise SurrogateError("need at least 2 trials to rank")
    return np.argsort(-scores, kind="stable"), top_count(n)


def split_history(history: History):
    """Partition trial indices into (good, bad) at the top-K quantile of
    j_score, each group in step order."""
    order, n_good = rank_top(history.j_scores)
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
    numeric, mu, bw, c = model._score_arrays
    z = (x[:, numeric] - mu) / bw
    z = np.column_stack([z, (z * z).sum(axis=1), np.ones(len(x))])
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
    from scipy.special import ndtri

    cont, other, ints, lo, hi, bw, per_component, cdfs, (int_lo, below, base, span, cap) = model._draw_arrays
    comps = rng.integers(model.n_components, size=n)
    u = rng.random((n, len(cont)))
    out = np.empty((n, model.space.m))
    out[:, other] = rng.random((n, len(other)))
    c, pa, qb, mass = per_component[:, comps]  # mass >= Phi(2) - Phi(0) ~ 0.477, as bw <= (hi - lo) / 2
    p = pa + u * mass
    z = np.where(p <= 0.5, ndtri(p), -ndtri(qb + (1.0 - u) * mass))
    out[:, cont] = np.clip(c + bw * z, lo, hi)
    for i, cdf in cdfs.items():
        out[:, i] = cdf.searchsorted(out[:, i], side="right")
    below, cap = below[:, comps], cap[:, comps]
    target = base[:, comps] + out[:, ints].T * span[:, comps]
    pick = np.array([row.searchsorted(t, side="right") for row, t in zip(model.lattice_prefix, target)])
    out[:, ints] = (np.minimum(pick.reshape(below.shape), cap) - below - 1 + int_lo).T
    return out


def propose_next(history: History, rng: np.random.Generator):
    """Propose the next config in history's space by maximizing the good/bad
    density ratio over N_CANDIDATES draws from the good-group model.

    Returns (config, proposal_density) where the density is taken under the
    good-group model the candidates were drawn from; the first of tied
    candidates wins, and only it is decoded to a Config.
    """
    good, bad = split_history(history)
    good_model = history.fit(good)
    bad_model = fit_kde(history.rows[bad], history.space)  # the largest list, and it changes at almost every step
    candidates = sample_from_kde(good_model, rng, N_CANDIDATES)
    g = density(good_model, candidates)
    best = int(np.argmax(g / density(bad_model, candidates)))
    return decode(history.space, candidates[best]), float(g[best])
