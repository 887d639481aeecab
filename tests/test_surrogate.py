import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import encoded, random_space
from tpe_as import cli, optimizer
from tpe_as.blackbox import STRATEGIES, strategy_preset
from tpe_as.objective import ObjectiveError, importance_weight
from tpe_as.space import (
    Config,
    ParamDomain,
    ParamSpace,
    SpaceError,
    decode,
    require_valid,
    sample_uniform,
)
from tpe_as.surrogate import (
    CATEGORICAL_FLOOR,
    DENSITY_FLOOR,
    MAX_REJECTION_TRIES,
    SQRT2,
    SQRT2PI,
    History,
    KdeModel,
    SurrogateError,
    TrialRecord,
    density,
    fit_kde,
    propose_next,
    rank_top,
    sample_from_kde,
    split_history,
    top_count,
)

UNIT_SPACE = ParamSpace((ParamDomain("x", "continuous", 0.0, 1.0),))


def make_history(j_scores):
    history = History(UNIT_SPACE)
    for i, j in enumerate(j_scores, start=1):
        history.append(
            TrialRecord(
                step=i, config=Config((0.5,)), f_value=j, j_score=j,
                proposal_density=1.0, lambda_used=0.0,
            )
        )
    return history


class TestHistory:
    @pytest.mark.parametrize(
        "steps, bad",
        [
            ((1, 2, 4), "expected step 3, got 4"),
            ((1, 2, 2), "expected step 3, got 2"),
            ((0,), "expected step 1, got 0"),
        ],
    )
    def test_append_rejects_skipped_or_repeated_step(self, steps, bad):
        history = make_history([0.0] * (len(steps) - 1))
        with pytest.raises(SurrogateError, match=f"^{bad}$"):
            history.append(
                TrialRecord(step=steps[-1], config=Config((0.5,)), f_value=0.0, j_score=0.0,
                            proposal_density=1.0, lambda_used=0.0)
            )
        assert len(history) == len(steps) - 1

    @pytest.mark.parametrize("value", [2.0, -0.5, math.nan, "0.5"])
    def test_append_rejects_config_outside_space(self, value):
        # the boundary where a config enters the surrogate's arrays; fit_kde
        # and density trust the rows they are given
        history = make_history([1.0, 2.0])
        with pytest.raises(SpaceError, match="^x: value .* outside continuous domain$"):
            history.append(
                TrialRecord(step=3, config=Config((value,)), f_value=0.0, j_score=0.0,
                            proposal_density=1.0, lambda_used=0.0)
            )
        assert len(history) == 2 and history.rows.shape == (2, 1)

    def test_rows_encode_each_trial_once(self, mixed_space, rng):
        configs = [sample_uniform(mixed_space, rng) for _ in range(150)]  # grows the table twice
        history = History(mixed_space)
        for i, cfg in enumerate(configs, start=1):
            history.append(TrialRecord(step=i, config=cfg, f_value=0.0, j_score=0.0,
                                       proposal_density=1.0, lambda_used=0.0))
        assert np.array_equal(history.rows, encoded(mixed_space, configs))
        assert set(history.rows[:, 2]) <= {0.0, 1.0, 2.0}  # categorical choice indices
        assert [decode(mixed_space, row) for row in history.rows] == configs

    @pytest.mark.parametrize("q", [0.0, -1.0, -math.inf])
    def test_record_rejects_nonpositive_density(self, q):
        with pytest.raises(SurrogateError, match="must be positive"):
            TrialRecord(step=1, config=Config((0.5,)), f_value=0.0, j_score=0.0,
                        proposal_density=q, lambda_used=0.0)


class TestSplitHistory:
    def test_paper_quantile(self):
        history = make_history(list(range(100)))
        good, bad = split_history(history, 0.15)
        assert len(good) == 15 and len(bad) == 85

    def test_minimum_floor(self):
        history = make_history(list(range(10)))
        good, bad = split_history(history, 0.15)
        assert len(good) == 2 and len(bad) == 8

    def test_tie_break_by_step(self):
        history = make_history([1.0] * 20)
        good, bad = split_history(history, 0.15)
        assert [history.trials[i].step for i in good] == [1, 2, 3]
        assert list(bad) == list(range(3, 20))

    def test_threshold_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            history = make_history(list(rng.normal(size=n)))
            good, bad = split_history(history, 0.15)
            assert len(good) == max(2, math.ceil(0.15 * n))
            assert sorted([*good, *bad]) == list(range(n))
            assert list(good) == sorted(good) and list(bad) == sorted(bad)
            j = np.array([t.j_score for t in history.trials])
            assert j[bad].max() <= j[good].min()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rank_matches_sorted_by_score_then_step(self, seed):
        # scores from a few values tie often, as the f = 0 of failed trials do;
        # the stable index order must be that of sorted(key=(-score, step))
        rng = np.random.default_rng(seed)
        history = make_history(rng.integers(-2, 3, int(rng.integers(2, 500))).astype(float).tolist())
        order, n_top = rank_top(np.array([t.j_score for t in history.trials]), 0.15)
        ranked, n_ref = config_rank_top(history, 0.15, lambda t: t.j_score)
        assert n_top == n_ref and [history.trials[i] for i in order] == ranked
        good, bad = split_history(history, 0.15)
        assert [[history.trials[i] for i in g] for g in (good, bad)] == list(
            config_split_history(history, 0.15)
        )

    def test_insufficient_history(self):
        with pytest.raises(SurrogateError):
            split_history(make_history([1.0]), 0.15)


class TestFitKde:
    def test_single_member_peaks_at_center(self, unit_space):
        model = fit_kde(np.array([[0.5]]), unit_space)
        mid, lo, hi = density(model, np.array([[0.5], [0.0], [1.0]]))
        assert mid > lo and mid > hi

    def test_categorical_smoothing_arithmetic(self):
        # 0.9 * {1, 0} + 0.1 * {0.5, 0.5}
        space = ParamSpace((ParamDomain("c", "categorical", choices=("A", "B")),))
        model = fit_kde(encoded(space, [Config(("A",))] * 5), space)
        assert density(model, np.array([[0.0], [1.0]])) == pytest.approx([0.95, 0.05])

    def test_mc_normalization_1d(self, unit_space):
        rng = np.random.default_rng(2)
        members = [sample_uniform(unit_space, rng) for _ in range(10)]
        model = fit_kde(encoded(unit_space, members), unit_space)
        xs = rng.uniform(0.0, 1.0, 100_000)
        integral = np.mean(density(model, xs[:, None]))
        assert integral == pytest.approx(1.0, abs=0.05)

    def test_empty_members_error(self, unit_space):
        with pytest.raises(SurrogateError):
            fit_kde(np.empty((0, 1)), unit_space)

    def test_categorical_tables_sum_to_one(self, mixed_space, rng):
        members = [sample_uniform(mixed_space, rng) for _ in range(20)]
        model = fit_kde(encoded(mixed_space, members), mixed_space)
        for table in model.categorical_tables.values():
            assert table.sum() == pytest.approx(1.0, abs=1e-9)


class TestDensity:
    def test_center_beats_far_tail(self, unit_space):
        model = fit_kde(np.array([[0.2]]), unit_space)
        center, tail = density(model, np.array([[0.2], [0.95]]))
        assert center > tail

    def test_coincident_points_hit_stability_clip(self, mixed_space):
        # zero spread leaves no Scott bandwidth; the width/min(100, n+1)
        # stability clip takes over and tightens as the group grows
        cfg = Config((0.5, 5, "A"))
        for n in (1, 2, 5):
            model = fit_kde(encoded(mixed_space, [cfg] * n), mixed_space)
            for dim, domain in enumerate(mixed_space.domains):
                if domain.kind == "categorical":
                    continue
                expected = domain.width() / min(100, n + 1)
                assert model.bandwidths[dim] == pytest.approx(expected)

    def test_uniform_categorical_closed_form(self):
        space = ParamSpace(
            (
                ParamDomain("c1", "categorical", choices=("A", "B")),
                ParamDomain("c2", "categorical", choices=("X", "Y", "Z")),
            )
        )
        # every choice equally represented -> tables stay uniform
        members = [Config((a, b)) for a in ("A", "B") for b in ("X", "Y", "Z")]
        model = fit_kde(encoded(space, members), space)
        assert density(model, encoded(space, [Config(("A", "X"))])) == pytest.approx([1 / 2 * 1 / 3])

    def test_positivity_everywhere(self, mixed_space, rng):
        members = [sample_uniform(mixed_space, rng) for _ in range(5)]
        model = fit_kde(encoded(mixed_space, members), mixed_space)
        probes = [sample_uniform(mixed_space, rng) for _ in range(200)]
        assert np.all(density(model, encoded(mixed_space, probes)) > 0)


def reference_trunc_mass(d, bw, centers):
    """Mass of each center's Gaussian kernel inside the bounds of a continuous domain."""
    return 0.5 * (erf((d.hi - centers) / (bw * SQRT2)) - erf((d.lo - centers) / (bw * SQRT2)))


def reference_lattice_pmf(d, bw, centers):
    """Each center's Gaussian weights on the lattice of an integer domain, renormalized."""
    lattice = np.arange(int(d.lo), int(d.hi) + 1, dtype=float)
    z = (lattice[None, :] - centers[:, None]) / bw
    w = np.exp(-0.5 * z * z)
    return w / w.sum(axis=1, keepdims=True)


def reference_density(model, config):
    """The per-config density the batch path replaced, kept as its oracle;
    truncation masses and lattice pmfs come from bandwidths and centers."""
    require_valid(model.space, config)
    per_component = np.ones(model.n_components)
    categorical_factor = 1.0
    for i, d in enumerate(model.space.domains):
        v = config.values[i]
        if d.kind == "continuous":
            bw = model.bandwidths[i]
            z = (float(v) - model.centers[i]) / bw
            pdf = np.exp(-0.5 * z * z) / (bw * SQRT2PI)
            per_component *= pdf / reference_trunc_mass(d, bw, model.centers[i])
        elif d.kind == "integer":
            per_component *= reference_lattice_pmf(d, model.bandwidths[i], model.centers[i])[:, int(v) - int(d.lo)]
        else:
            table = model.categorical_tables[i]
            categorical_factor *= float(table[d.choices.index(v)])
    return max(float(per_component.mean() * categorical_factor), DENSITY_FLOOR)


class TestBatchDensity:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_width=st.sampled_from([30, 111]), coincident=st.booleans())
    def test_batch_equals_per_config(self, seed, max_width, coincident):
        # within the declared tolerance of the per-dimension product: the GEMM
        # rounds each row by the batch shape, so one-row calls may differ in the
        # last bits too.  The probes include every member row and the same rows
        # one ulp toward each bound, where |x - c|^2 nearly cancels to 0.  Wide
        # lattices (111 values, as trend_following's slow windows) and coincident
        # members, whose bandwidths sit at their floor, make |z|^2 and the
        # lattice sums largest
        rng = np.random.default_rng(seed)
        space = random_space(rng, max_dims=30, max_width=max_width)
        members = [sample_uniform(space, rng) for _ in range(int(rng.integers(1, 40)))]
        if coincident:
            members = members[:1] * len(members)
        model = fit_kde(encoded(space, members), space)
        probes = list(members)
        for _ in range(20):
            probes += [sample_uniform(space, rng), decode(space, sample_from_kde(model, rng, 1)[0])]
        cont = [d.kind == "continuous" for d in space.domains]
        for bound in ("lo", "hi"):
            toward = [getattr(d, bound) if d.kind == "continuous" else 0.0 for d in space.domains]
            moved = np.where(cont, np.nextafter(encoded(space, members), toward), encoded(space, members))
            probes += [decode(space, row) for row in moved]
        rows = encoded(space, probes)
        batch = density(model, rows)
        assert np.all(np.isfinite(batch)) and np.all(batch > 0)
        np.testing.assert_allclose(batch, [reference_density(model, p) for p in probes], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            batch, np.concatenate([density(model, row[None]) for row in rows]), rtol=1e-12, atol=0
        )


class TestProposeNext:
    def make_clustered_history(self, space, rng, n=60):
        # good trials cluster mid-domain, bad trials at the edges
        history = History(space)
        for i in range(1, n + 1):
            if i % 4 == 0:
                x = float(rng.uniform(0.4, 0.6))
                score = 1.0 + float(rng.uniform(0, 0.1))
            else:
                x = float(rng.choice([rng.uniform(0, 0.1), rng.uniform(0.9, 1.0)]))
                score = float(rng.uniform(0, 0.1))
            history.append(
                TrialRecord(step=i, config=Config((x,)), f_value=score,
                            j_score=score, proposal_density=1.0, lambda_used=0.0)
            )
        return history

    def test_deterministic_given_seed(self, unit_space, rng):
        history = self.make_clustered_history(unit_space, rng)
        a = propose_next(history, unit_space, 0.15, 16, np.random.default_rng(3))
        b = propose_next(history, unit_space, 0.15, 16, np.random.default_rng(3))
        assert a == b

    def test_proposal_validates(self, mixed_space, rng):
        history = History(mixed_space)
        for i in range(1, 30):
            cfg = sample_uniform(mixed_space, rng)
            history.append(
                TrialRecord(step=i, config=cfg, f_value=float(rng.normal()),
                            j_score=float(rng.normal()), proposal_density=1.0,
                            lambda_used=0.0)
            )
        for s in range(20):
            cfg, q = propose_next(history, mixed_space, 0.15, 8, np.random.default_rng(s))
            require_valid(mixed_space, cfg)
            assert q > 0

    def test_single_candidate_degenerate_argmax(self, unit_space, rng):
        history = self.make_clustered_history(unit_space, rng)
        good, _ = split_history(history, 0.15)
        model = fit_kde(history.rows[good], unit_space)
        (draw,) = sample_from_kde(model, np.random.default_rng(9), 1)
        cfg, _ = propose_next(history, unit_space, 0.15, 1, np.random.default_rng(9))
        assert cfg == decode(unit_space, draw)

    def test_best_ratio_of_reference_draws(self, mixed_space, rng):
        history = History(mixed_space)
        for i in range(1, 40):
            score = float(rng.normal())
            history.append(
                TrialRecord(step=i, config=sample_uniform(mixed_space, rng), f_value=score,
                            j_score=score, proposal_density=1.0, lambda_used=0.0)
            )
        good, bad = split_history(history, 0.15)
        good_model = fit_kde(history.rows[good], mixed_space)
        bad_model = fit_kde(history.rows[bad], mixed_space)
        draws = np.random.default_rng(4)
        candidates = [reference_sample_from_kde(good_model, draws) for _ in range(32)]
        rows = encoded(mixed_space, candidates)
        ratios = density(good_model, rows) / density(bad_model, rows)
        cfg, q = propose_next(history, mixed_space, 0.15, 32, np.random.default_rng(4))
        assert repr(cfg) == repr(candidates[int(np.argmax(ratios))])
        assert np.array_equal([q], density(good_model, encoded(mixed_space, [cfg])))

    def test_proposals_track_good_cluster(self, unit_space, rng):
        history = self.make_clustered_history(unit_space, rng, n=80)
        hits = 0
        for s in range(100):
            cfg, _ = propose_next(history, unit_space, 0.15, 32, np.random.default_rng(s))
            if 0.3 <= cfg.values[0] <= 0.7:
                hits += 1
        assert hits >= 90


# The per-config validator, the rng.choice sampler and the per-column fit that
# the fast path replaced, kept verbatim as its oracles: trial logs depend on
# every draw, every bit of every bandwidth, and every SpaceError message.


def reference_require_valid(space: ParamSpace, config: Config) -> None:
    """Raise SpaceError naming every coordinate of config outside its domain."""
    if len(config.values) != space.m:
        raise SpaceError(f"<space>: expected {space.m} values, got {len(config.values)}")
    bad = [
        f"{d.name}: value {v!r} outside {d.kind} domain"
        for d, v in zip(space.domains, config.values)
        if not d.contains(v)
    ]
    if bad:
        raise SpaceError("; ".join(bad))


def reference_scott_bandwidth(values: np.ndarray, n_numeric: int, width: float) -> float:
    sigma = float(np.std(values))
    bw = sigma * len(values) ** (-1.0 / (n_numeric + 4))
    # adaptive minimum keeps proposals diverse when members coincide; without
    # it the search freezes on whatever point the good group collapses to
    magic_clip = width / min(100, len(values) + 1)
    floor_frac = 1e-3  # of domain width
    return max(bw, magic_clip, floor_frac * width)


@dataclass(frozen=True)
class ConfigKdeModel:
    """The model the per-column fit and the Config-based oracles build:
    truncation masses and lattice pmfs are precomputed at fit time."""

    space: ParamSpace
    centers: tuple  # per dim: component centers (None for categorical)
    bandwidths: dict  # numeric dim index -> float > 0
    categorical_tables: dict  # categorical dim index -> np.ndarray over choices
    n_components: int
    trunc_mass: dict  # continuous dim index -> per-component truncation mass
    lattice_pmf: dict  # integer dim index -> (n_components x lattice) pmf


def reference_fit_kde(members, space: ParamSpace) -> ConfigKdeModel:
    """Fit a Parzen density with one component per member config."""
    if not members:
        raise SurrogateError("cannot fit a KDE on zero members")
    for cfg in members:
        reference_require_valid(space, cfg)

    n_numeric = sum(1 for d in space.domains if d.is_numeric)
    centers = []
    bandwidths = {}
    tables = {}
    trunc_mass = {}
    lattice_pmf = {}
    for i, d in enumerate(space.domains):
        col = [cfg.values[i] for cfg in members]
        if d.is_numeric:
            arr = np.asarray(col, dtype=float)
            centers.append(arr)
            bw = reference_scott_bandwidth(arr, n_numeric, d.width())
            bandwidths[i] = bw
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
            counts = np.array([col.count(c) for c in d.choices], dtype=float)
            empirical = counts / counts.sum()
            uniform = np.full(len(d.choices), 1.0 / len(d.choices))
            tables[i] = (1.0 - CATEGORICAL_FLOOR) * empirical + CATEGORICAL_FLOOR * uniform
    return ConfigKdeModel(
        space=space,
        centers=tuple(centers),
        bandwidths=bandwidths,
        categorical_tables=tables,
        n_components=len(members),
        trunc_mass=trunc_mass,
        lattice_pmf=lattice_pmf,
    )


def reference_sample_from_kde(model: KdeModel, rng: np.random.Generator) -> Config:
    """Draw one config: pick a component uniformly, then sample each kernel;
    lattice pmfs come from bandwidths and centers."""
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
            pmf = reference_lattice_pmf(d, model.bandwidths[i], model.centers[i])[comp]
            values.append(int(d.lo) + int(rng.choice(len(pmf), p=pmf)))
        else:
            table = model.categorical_tables[i]
            values.append(d.choices[int(rng.choice(len(table), p=table))])
    return Config(tuple(values))


def reference_validate_batch(space, *configs):
    for config in configs:
        reference_require_valid(space, config)


# The Config-based surrogate and objective that the array path replaced, kept
# verbatim as the oracle of the whole loop; only the names carry a `config_`
# prefix, and the batch validator they called is `reference_validate_batch`.


def config_rank_top(history: History, k: float, score):
    """Trials ranked by descending score, lower step first on ties, and their top_count."""
    n = len(history)
    if n < 2:
        raise SurrogateError("need at least 2 trials to rank")
    if not 0 < k < 1:
        raise SurrogateError("k must lie in (0, 1)")
    ranked = sorted(history.trials, key=lambda t: (-score(t), t.step))
    return ranked, top_count(n, k)


def config_split_history(history: History, k: float):
    """Partition trials into (good, bad) at the top-k quantile of j_score,
    each group in step order."""
    ranked, n_good = config_rank_top(history, k, lambda t: t.j_score)
    step = lambda t: t.step
    return sorted(ranked[:n_good], key=step), sorted(ranked[n_good:], key=step)


def config_scott_bandwidth(sigma: float, n: int, n_numeric: int, width: float) -> float:
    bw = sigma * n ** (-1.0 / (n_numeric + 4))
    # adaptive minimum keeps proposals diverse when members coincide; without
    # it the search freezes on whatever point the good group collapses to
    return max(bw, width / min(100, n + 1))


def config_fit_kde(members, space: ParamSpace) -> ConfigKdeModel:
    """Fit a Parzen density with one component per member config."""
    if not members:
        raise SurrogateError("cannot fit a KDE on zero members")
    reference_validate_batch(space, *members)

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
            bandwidths[i] = bw = config_scott_bandwidth(sigma, n, len(numeric), d.width())
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
    return ConfigKdeModel(
        space=space,
        centers=tuple(centers),
        bandwidths=bandwidths,
        categorical_tables=tables,
        n_components=n,
        trunc_mass=trunc_mass,
        lattice_pmf=lattice_pmf,
    )


def config_density(model: ConfigKdeModel, configs) -> np.ndarray:
    """Mixture densities at a list of configs; each strictly positive."""
    reference_validate_batch(model.space, *configs)
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


def config_sample_from_kde(model: ConfigKdeModel, rng: np.random.Generator, n: int) -> list:
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


def config_propose_next(history, space, k, n_candidates, rng):
    """Propose the next config by maximizing the good/bad density ratio."""
    if n_candidates < 1:
        raise SurrogateError("need at least one candidate")
    good, bad = config_split_history(history, k)
    good_model = config_fit_kde([t.config for t in good], space)
    bad_model = config_fit_kde([t.config for t in bad], space)
    candidates = config_sample_from_kde(good_model, rng, n_candidates)
    g = config_density(good_model, candidates)
    best = int(np.argmax(g / config_density(bad_model, candidates)))
    return candidates[best], float(g[best])


def config_windowed_variance(history, g_model, current, epsilon, window):
    """Population variance of clip-weighted f values over the trailing window."""
    if window < 2:
        raise ObjectiveError("window must be at least 2")
    entries = [(t.config, t.f_value, t.proposal_density) for t in history.trials[1 - window:]]
    entries.append(current)
    g = config_density(g_model, [cfg for cfg, _, _ in entries])
    weighted = [importance_weight(gi, q, epsilon) * f for gi, (_, f, q) in zip(g, entries)]
    return float(np.var(weighted))


def config_build_g_model(history, k, space):
    """KDE over the configs of the top-k trials ranked by raw f value."""
    ranked, n_top = config_rank_top(history, k, lambda t: t.f_value)
    return config_fit_kde([t.config for t in ranked[:n_top]], space)  # rank order fixes component order


def space_and_members(seed, strategy):
    """A random space (or a strategy's), and 1-58 members, some repeated so
    that coincident members give zero sigma and near one-hot lattice pmfs.
    Random integer lattices hold up to 111 values, as trend_following's slow
    windows do, so one member value often stands for several members."""
    rng = np.random.default_rng(seed)
    space = (
        strategy_preset(strategy).param_space if strategy
        else random_space(rng, max_dims=30, max_width=111)
    )
    members = [sample_uniform(space, rng) for _ in range(int(rng.integers(1, 30)))]
    members += [members[int(i)] for i in rng.integers(len(members), size=rng.integers(0, 30))]
    return space, members


def bound_members(seed, layout):
    """A space of 2-8 continuous dims, consecutive or alternating with
    categorical dims, and 1-20 members on a bound of every continuous dim."""
    rng = np.random.default_rng(seed)
    domains = []
    for i in range(int(rng.integers(2, 9))):
        lo = float(rng.uniform(-10, 5))
        domains.append(ParamDomain(f"x{i}", "continuous", lo, lo + float(rng.uniform(0.5, 10))))
        if layout == "alternating":
            domains.append(ParamDomain(f"c{i}", "categorical", choices=("A", "B", "C")))
    space = ParamSpace(tuple(domains))
    members = []
    for _ in range(int(rng.integers(1, 21))):
        values = sample_uniform(space, rng).values
        members.append(Config(tuple(
            (d.lo, d.hi)[int(rng.integers(2))] if d.kind == "continuous" else v
            for d, v in zip(space.domains, values)
        )))
    return space, members


def space_error(validate, target, configs):
    """The SpaceError message validate(target, *configs) raises, or None."""
    try:
        validate(target, *configs)
    except SpaceError as exc:
        return str(exc)
    return None


# Values to plant in a config; each maps (domain, a valid value) to a value
# that is valid or not depending on the domain.
ODD_VALUES = {
    "true": lambda d, v: True,
    "false": lambda d, v: False,
    "np-int64": lambda d, v: np.int64(round(v)) if d.is_numeric else np.int64(1),
    "np-float64": lambda d, v: np.float64(v) if d.is_numeric else np.float64(1.0),
    "whole-float": lambda d, v: float(round(v)) if d.is_numeric else 3.0,
    "lo": lambda d, v: d.lo if d.is_numeric else d.choices[0],
    "hi": lambda d, v: d.hi if d.is_numeric else d.choices[-1],
    "int-lo": lambda d, v: int(d.lo) if d.is_numeric else 0,
    "below": lambda d, v: d.lo - 1 if d.is_numeric else "c-1",
    "nan": lambda d, v: float("nan"),
    "inf": lambda d, v: float("inf"),
    "-inf": lambda d, v: float("-inf"),
    "huge": lambda d, v: 10**400,
    "-huge": lambda d, v: -(10**400),
    "unknown-label": lambda d, v: "zz",
    "unhashable": lambda d, v: [v],
    "np-str": lambda d, v: np.str_(v) if isinstance(v, str) else np.str_("c0"),
}


class TestFastPathMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strategy=st.sampled_from([None, *STRATEGIES]),
        on_bounds=st.sampled_from([None, None, "consecutive", "alternating"]),
    )
    def test_draws_match_rng_choice(self, seed, strategy, on_bounds):
        # members on the bounds reject about half of all normal draws, so a run
        # of continuous dims spends its pre-drawn normals on retries and goes on
        # with scalar draws
        space, members = space_and_members(seed, strategy) if on_bounds is None else bound_members(seed, on_bounds)
        model = fit_kde(encoded(space, members), space)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)

        def draws(n):  # the reprs hold each value's type: an int is no float in a log
            return repr([decode(space, row) for row in sample_from_kde(model, fast, n)])

        assert draws(20) == repr([reference_sample_from_kde(model, slow) for _ in range(20)])
        assert fast.bit_generator.state == slow.bit_generator.state
        for _ in range(5):
            assert draws(1) == repr([reference_sample_from_kde(model, slow)])
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("u", [0.0, 1 - 2**-53])
    @pytest.mark.parametrize("n_members", [1, 100])
    def test_integer_draws_at_edge_uniforms(self, u, n_members):
        # coincident members put every lattice at the bandwidth floor
        # width / min(100, n + 1).  At 100 members slow_*'s kernel (bw 1.1)
        # underflows to 0 about 43 values from its center, inside the 111-wide
        # window; at 1 member (bw 55) base + u * Z(c) can round up past the
        # window's last sum, so only the cap keeps the draw in the domain.
        # Each draw is the Generator.choice cdf index and never a zero-weight
        # value.  These two floors are the extremes; at some member counts in
        # between, the two roundings put an edge uniform a value apart (README).
        edge_rng = SimpleNamespace(  # component 0, zero normals, every uniform u
            integers=lambda n: 0,
            standard_normal=lambda size=None: 0.0 if size is None else np.zeros(size),
            random=lambda size=None: u if size is None else np.full(size, u),
        )
        space = strategy_preset("trend_following").param_space
        integer = [(i, d) for i, d in enumerate(space.domains) if d.kind == "integer"]
        base = list(sample_uniform(space, np.random.default_rng(0)).values)
        for v in range(10, 121):
            for i, d in integer:
                base[i] = v if d.name.startswith("slow") else 2 + v % 29
            model = fit_kde(encoded(space, [Config(tuple(base))] * n_members), space)
            (row,) = sample_from_kde(model, edge_rng, 1)
            for i, d in integer:
                pmf = reference_lattice_pmf(d, model.bandwidths[i], model.centers[i][:1])[0]
                cdf = pmf.cumsum()
                cdf /= cdf[-1]
                assert row[i] == d.lo + cdf.searchsorted(u, side="right")
                assert pmf[int(row[i] - d.lo)] > 0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from([None, *STRATEGIES]))
    def test_fit_matches_per_column_fit(self, seed, strategy):
        # bandwidths, centers and categorical tables equal the per-column fit bit
        # for bit; the log normalisers, whose lattice sums come from one prefix
        # sum per integer dimension, match the direct sums over each lattice
        space, members = space_and_members(seed, strategy)
        model, reference = fit_kde(encoded(space, members), space), reference_fit_kde(members, space)
        numeric = [i for i, d in enumerate(space.domains) if d.is_numeric]
        per_column = [
            reference_scott_bandwidth(
                np.asarray([c.values[i] for c in members], dtype=float),
                len(numeric),
                space.domains[i].width(),
            )
            for i in numeric
        ]
        assert np.array_equal([model.bandwidths[i] for i in numeric], per_column)
        assert list(model.bandwidths) == list(reference.bandwidths)
        for mine, theirs in zip(model.centers, reference.centers):
            assert (mine is None and theirs is None) or np.array_equal(mine, theirs)
        assert list(model.categorical_tables) == list(reference.categorical_tables)
        assert all(np.array_equal(model.categorical_tables[i], t) for i, t in reference.categorical_tables.items())
        log_norm = np.zeros(len(members))
        for i, d in enumerate(space.domains):
            bw, centers = reference.bandwidths[i] if d.is_numeric else None, reference.centers[i]
            if d.kind == "continuous":
                log_norm -= np.log(bw * SQRT2PI * reference.trunc_mass[i])
            elif d.kind == "integer":
                lattice = np.arange(int(d.lo), int(d.hi) + 1, dtype=float)
                log_norm -= np.log(np.exp(-0.5 * ((lattice[None, :] - centers[:, None]) / bw) ** 2).sum(axis=1))
        np.testing.assert_allclose(model.log_norm, log_norm, rtol=1e-13, atol=1e-13)

    @settings(max_examples=1000, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_configs=st.integers(1, 6),
        plants=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 29), st.sampled_from(sorted(ODD_VALUES))),
            max_size=3,
        ),
        resize=st.sampled_from([None, None, None, (0, -1), (5, 1)]),
    )
    def test_append_validates_as_per_config(self, seed, n_configs, plants, resize):
        # History.append is where a config enters the surrogate's arrays: it
        # rejects what the per-config validator rejects, with its message, and
        # the row it keeps decodes back to an equal config
        rng = np.random.default_rng(seed)
        space = random_space(rng, max_dims=6)
        valid = [sample_uniform(space, rng).values for _ in range(n_configs)]
        rows = [list(values) for values in valid]
        for row, dim, name in plants:
            row, dim = row % n_configs, dim % space.m
            rows[row][dim] = ODD_VALUES[name](space.domains[dim], valid[row][dim])
        if resize:  # one config one value short or long
            row, step = resize
            rows[row % n_configs] = rows[row % n_configs][:step] if step < 0 else rows[row % n_configs] * 2
        def append(history, config):
            history.append(TrialRecord(step=1, config=config, f_value=0.0, j_score=0.0,
                                       proposal_density=1.0, lambda_used=0.0))

        for config in (Config(tuple(row)) for row in rows):
            history = History(space)
            expected = space_error(reference_validate_batch, space, [config])
            assert space_error(append, history, [config]) == expected
            assert space_error(require_valid, space, [config]) == expected
            if expected is None:
                assert decode(space, history.rows[0]) == config
            else:
                assert len(history) == 0

    @pytest.mark.parametrize(
        "method, strategy, scenario",
        [
            ("tpe_as", "threshold_hybrid", "high_volatility"),
            ("tpe_conventional", "trend_following", "stable_bull"),
        ],
    )
    def test_whole_loop_writes_same_log(self, tmp_path, monkeypatch, method, strategy, scenario):
        # budget 150 lets the bad group pass 99 members, where the bandwidth
        # floor width / min(100, n + 1) stops tightening
        def trial_log(name):
            doc = {
                "method": method,
                "strategy": strategy,
                "scenario": scenario,
                "optimizer": {"budget": 150},
                "seeds": [0],
                "output_dir": str(tmp_path / name),
            }
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            assert cli.main(["run", str(tmp_path / f"{name}.json")]) == 0
            (log,) = (tmp_path / name).glob("*.jsonl")
            return [json.loads(line) for line in log.read_text().splitlines()]

        fast = trial_log("fast")
        monkeypatch.setattr(optimizer, "propose_next", config_propose_next)
        monkeypatch.setattr(optimizer, "build_g_model", config_build_g_model)
        monkeypatch.setattr(optimizer, "windowed_variance", config_windowed_variance)
        reference = trial_log("reference")
        # the same configs and f values; the densities, and the j scores built
        # from them, are within the declared tolerance of the per-dimension product
        exact = ("step", "config", "f", "lambda", "flags")
        assert [[t[key] for key in exact] for t in fast] == [[t[key] for key in exact] for t in reference]
        for key, atol in (("proposal_density", 0), ("j_score", 1e-12)):
            np.testing.assert_allclose([t[key] for t in fast], [t[key] for t in reference], rtol=1e-12, atol=atol)
