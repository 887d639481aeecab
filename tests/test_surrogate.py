import json
import math
import pickle
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, ndtr, ndtri
from scipy.stats import chisquare, kstest

from conftest import encoded, random_space
from tpe_as import cli, optimizer, surrogate
from tpe_as.blackbox import STRATEGIES, strategy_preset
from tpe_as.objective import build_g_model, importance_weight
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
    SQRT2,
    SQRT2PI,
    History,
    SurrogateError,
    TrialRecord,
    density,
    fit_kde,
    propose_next,
    rank_top,
    sample_from_kde,
    split_history,
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

    @pytest.mark.parametrize("value", [2.0, -0.5, math.nan, "0.5", True])
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


class TestSplitHistory:
    def test_paper_quantile(self):
        history = make_history(list(range(100)))
        good, bad = split_history(history)
        assert len(good) == 15 and len(bad) == 85

    def test_minimum_floor(self):
        history = make_history(list(range(10)))
        good, bad = split_history(history)
        assert len(good) == 2 and len(bad) == 8

    def test_tie_break_by_step(self):
        history = make_history([1.0] * 20)
        good, bad = split_history(history)
        assert [history.trials[i].step for i in good] == [1, 2, 3]
        assert list(bad) == list(range(3, 20))

    def test_threshold_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            history = make_history(list(rng.normal(size=n)))
            good, bad = split_history(history)
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
        order, n_top = rank_top(np.array([t.j_score for t in history.trials]))
        ranked, n_ref = config_rank_top(history, lambda t: t.j_score)
        assert n_top == n_ref and [history.trials[i] for i in order] == ranked
        good, bad = split_history(history)
        assert [[history.trials[i] for i in g] for g in (good, bad)] == list(config_split_history(history))

    def test_insufficient_history(self):
        with pytest.raises(SurrogateError):
            split_history(make_history([1.0]))


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

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strategy=st.sampled_from([None, *STRATEGIES]),
        n=st.integers(1, 150),
        layout=st.sampled_from(["uniform", "on-bounds", "coincident"]),
    )
    def test_bandwidth_at_most_half_width(self, seed, strategy, n, layout):
        # sample_from_kde inverts each continuous kernel's truncated normal
        # cdf: a kernel on a center in [lo, hi] whose bandwidth is at most
        # (hi - lo) / 2 keeps the mass M = 1 - Phi(a) - Phi(-b) in bounds at
        # least Phi(2) - Phi(0) ~ 0.477, so M is free of cancellation.  Scott's
        # rule stays below the half-width, since no spread of values in
        # [lo, hi] exceeds it, and the floor (hi - lo) / min(100, n + 1)
        # reaches it at n = 1.
        rng = np.random.default_rng(seed)
        space = strategy_preset(strategy).param_space if strategy else random_space(rng, max_dims=30, max_width=111)
        members = [sample_uniform(space, rng) for _ in range(1 if layout == "coincident" else n)]
        rows = encoded(space, members * n if layout == "coincident" else members)
        numeric = [(i, d) for i, d in enumerate(space.domains) if d.is_numeric]
        if layout == "on-bounds":
            for i, d in numeric:
                rows[:, i] = np.where(rng.integers(2, size=n), d.hi, d.lo)
        model = fit_kde(rows, space)
        assert list(model.bandwidths) == [i for i, _ in numeric]
        for i, d in numeric:
            assert model.bandwidths[i] <= (d.hi - d.lo) / 2


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
                expected = (domain.hi - domain.lo) / min(100, n + 1)
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


class TestBatchDensity:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_width=st.sampled_from([30, 111]), coincident=st.booleans())
    def test_batch_equals_per_config(self, seed, max_width, coincident):
        # within the declared tolerance of the per-dimension product of an
        # independent per-config fit: the GEMM rounds each row by the batch
        # shape, so one-row calls may differ in the last bits too.  The probes
        # include every member row and the same rows one ulp toward each
        # bound, where |x - c|^2 nearly cancels to 0.  Wide
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
        reference = config_density(config_fit_kde(members, space), probes)
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=0)
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
        a = propose_next(history, np.random.default_rng(3))
        b = propose_next(history, np.random.default_rng(3))
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
            cfg, q = propose_next(history, np.random.default_rng(s))
            require_valid(mixed_space, cfg)
            assert q > 0

    def test_best_ratio_of_reference_draws(self, mixed_space, rng):
        # the winner of the 64 candidates that the good model's three RNG blocks give
        history = History(mixed_space)
        for i in range(1, 40):
            score = float(rng.normal())
            history.append(
                TrialRecord(step=i, config=sample_uniform(mixed_space, rng), f_value=score,
                            j_score=score, proposal_density=1.0, lambda_used=0.0)
            )
        good, bad = split_history(history)
        good_model = fit_kde(history.rows[good], mixed_space)
        bad_model = fit_kde(history.rows[bad], mixed_space)
        candidates = config_sample_from_kde(good_model, np.random.default_rng(4), 64)
        rows = encoded(mixed_space, candidates)
        g = density(good_model, rows)
        best = int(np.argmax(g / density(bad_model, rows)))
        cfg, q = propose_next(history, np.random.default_rng(4))
        assert repr(cfg) == repr(candidates[best])
        assert q == g[best]  # as scored in its batch: a lone row's last bits may differ

    def test_proposals_track_good_cluster(self, unit_space, rng):
        history = self.make_clustered_history(unit_space, rng, n=80)
        hits = 0
        for s in range(100):
            cfg, _ = propose_next(history, np.random.default_rng(s))
            if 0.3 <= cfg.values[0] <= 0.7:
                hits += 1
        assert hits >= 90


def same_fit(a, b) -> bool:
    """Two KdeModels whose fields are equal, array for array."""
    return (
        a.space == b.space and a.n_components == b.n_components and a.bandwidths == b.bandwidths
        and all((x is None and y is None) or np.array_equal(x, y) for x, y in zip(a.centers, b.centers))
        and list(a.categorical_tables) == list(b.categorical_tables)
        and all(np.array_equal(t, b.categorical_tables[i]) for i, t in a.categorical_tables.items())
        and np.array_equal(a.log_norm, b.log_norm) and np.array_equal(a.lattice_prefix, b.lattice_prefix)
    )


def filled_history(space, rng, n):
    history = History(space)
    for i in range(1, n + 1):
        score = float(rng.normal())
        history.append(TrialRecord(step=i, config=sample_uniform(space, rng), f_value=score, j_score=score,
                                   proposal_density=1.0, lambda_used=0.0))
    return history


def numeric_sum(cfg):
    return sum(float(v) for v in cfg.values if not isinstance(v, str))


class TestFitReuse:
    """History.fit refits only a member list it has not fitted at this length or the one before."""

    @pytest.fixture
    def fitted(self, monkeypatch):
        """The rows of every fit_kde call made through surrogate's binding, History.fit's included."""
        rows_fitted = []

        def counted(rows, space, _fit=fit_kde):
            rows_fitted.append(rows.copy())
            return _fit(rows, space)

        monkeypatch.setattr(surrogate, "fit_kde", counted)
        return rows_fitted

    def test_reused_fit_equals_a_fresh_fit(self, monkeypatch, fitted):
        # every model the adaptive loop gets from History.fit, reused or not,
        # has a fresh fit's arrays and gives its densities and draws bit for bit
        space, reused, original = strategy_preset("trend_following").param_space, [], History.fit

        def checked(history, members):
            n_fits = len(fitted)
            model = original(history, members)
            reused.append(len(fitted) == n_fits)
            fresh = fit_kde(history.rows[members], history.space)
            assert same_fit(model, fresh)
            for seed in range(2):
                draws = sample_from_kde(model, np.random.default_rng(seed), 64)
                assert draws.tobytes() == sample_from_kde(fresh, np.random.default_rng(seed), 64).tobytes()
                x = np.vstack([history.rows, draws])
                assert density(model, x).tobytes() == density(fresh, x).tobytes()
            return model

        monkeypatch.setattr(History, "fit", checked)
        optimizer.run(optimizer.OptimizerConfig(budget=100, seed=0), numeric_sum, space)
        assert len(reused) == 80 + 98 and sum(reused) > len(reused) / 4  # the good model from step 21, g from 3

    def test_changed_member_list_fits_anew(self, mixed_space, rng, fitted):
        history = filled_history(mixed_space, rng, 30)
        good, _ = split_history(history)
        model = history.fit(good)
        assert history.fit(good) is model and len(fitted) == 1
        history.append(TrialRecord(step=31, config=sample_uniform(mixed_space, rng), f_value=9.0, j_score=9.0,
                                   proposal_density=1.0, lambda_used=0.0))
        assert history.fit(good) is model and len(fitted) == 1  # the same list one trial later
        new_good, _ = split_history(history)
        assert not np.array_equal(new_good, good)
        assert history.fit(new_good) is not model and len(fitted) == 2
        assert np.array_equal(fitted[-1], history.rows[new_good])
        history.fit(new_good[::-1])  # member order fixes component order, so it is part of the list
        assert len(fitted) == 3

    def test_g_model_refits_when_the_top_list_changes(self, mixed_space, rng, fitted):
        history = filled_history(mixed_space, rng, 30)
        g_model = build_g_model(history)
        for step, f, refit in ((31, -9.0, False), (32, 9.0, True), (33, -9.0, False)):
            history.append(TrialRecord(step=step, config=sample_uniform(mixed_space, rng), f_value=f,
                                       j_score=f, proposal_density=1.0, lambda_used=0.0))
            n_fits = len(fitted)
            model = build_g_model(history)
            assert len(fitted) - n_fits == int(refit)
            assert (model is g_model) == (not refit)
            ranked = np.argsort(-history.f_values, kind="stable")[:len(model.log_norm)]
            assert same_fit(model, fit_kde(history.rows[ranked], mixed_space))
            g_model = model

    def test_memo_keeps_only_the_last_two_lengths(self, mixed_space, monkeypatch):
        # a model History.fit last returned two lengths ago is freed: the memo
        # holds no more than the fits at this length and at the one before
        returned, original = {}, History.fit

        def watched(history, members):
            model = original(history, members)
            returned[id(model)] = weakref.ref(model), len(history)
            alive = [n for ref, n in returned.values() if ref() is not None]
            assert min(alive) >= len(history) - 1 and len(alive) <= 4  # good and g lists at two lengths
            return model

        monkeypatch.setattr(History, "fit", watched)
        optimizer.run(optimizer.OptimizerConfig(budget=80, seed=1), numeric_sum, mixed_space)

    def test_pickled_history_leaves_its_fits_behind(self, mixed_space, rng):
        history = filled_history(mixed_space, rng, 30)
        before = pickle.dumps(history)
        good, _ = split_history(history)
        model = history.fit(good)
        assert pickle.dumps(history) == before
        assert same_fit(pickle.loads(before).fit(good), model)


# The per-config validator that the fast path replaced, kept verbatim as its
# oracle: trial logs depend on every SpaceError message.


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


@dataclass(frozen=True)
class ConfigKdeModel:
    """The model the Config-based oracles build: truncation masses and
    lattice pmfs are precomputed at fit time."""

    space: ParamSpace
    centers: tuple  # per dim: component centers (None for categorical)
    bandwidths: dict  # numeric dim index -> float > 0
    categorical_tables: dict  # categorical dim index -> np.ndarray over choices
    n_components: int
    trunc_mass: dict  # continuous dim index -> per-component truncation mass
    lattice_pmf: dict  # integer dim index -> (n_components x lattice) pmf


def reference_lattice_pmf(d, bw, centers):
    """Each center's Gaussian weights on the lattice of an integer domain, renormalized."""
    lattice = np.arange(int(d.lo), int(d.hi) + 1, dtype=float)
    z = (lattice[None, :] - centers[:, None]) / bw
    w = np.exp(-0.5 * z * z)
    return w / w.sum(axis=1, keepdims=True)


def reference_validate_batch(space, *configs):
    for config in configs:
        reference_require_valid(space, config)


# The Config-based surrogate and objective that the array path replaced, kept
# verbatim as the oracle of the whole loop and of every bit of every bandwidth;
# only the names carry a `config_` prefix, and the batch validator and lattice
# pmf they called are `reference_validate_batch` and `reference_lattice_pmf`.
# The sampler is instead a per-config scalar reading of `sample_from_kde`'s
# rule over the same three RNG blocks.  The oracles write the method's
# constants as literals, the top share 0.15, 64 candidates, the clip 0.2 and
# the window of 20, so a change to the program's constants fails against them.


def config_rank_top(history: History, score):
    """Trials ranked by descending score, lower step first on ties, and how
    many of them the top-0.15 quantile rule keeps."""
    n = len(history)
    if n < 2:
        raise SurrogateError("need at least 2 trials to rank")
    ranked = sorted(history.trials, key=lambda t: (-score(t), t.step))
    return ranked, max(2, math.ceil(0.15 * n))


def config_split_history(history: History):
    """Partition trials into (good, bad) at the top-0.15 quantile of j_score,
    each group in step order."""
    ranked, n_good = config_rank_top(history, lambda t: t.j_score)
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
            bandwidths[i] = bw = config_scott_bandwidth(sigma, n, len(numeric), d.hi - d.lo)
            if d.kind == "continuous":
                hi_mass = erf((d.hi - arr) / (bw * SQRT2))
                lo_mass = erf((d.lo - arr) / (bw * SQRT2))
                trunc_mass[i] = 0.5 * (hi_mass - lo_mass)
            else:
                lattice_pmf[i] = reference_lattice_pmf(d, bw, arr)
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


def config_sample_from_kde(model, rng: np.random.Generator, n: int) -> list:
    """Draw n configs, one at a time, from a KdeModel or a ConfigKdeModel: a
    component index, then each dim from its uniform of the three RNG blocks.
    A continuous dim inverts its truncated normal in the tail where the
    probability is at most 1/2; an integer or categorical dim takes the index
    of its uniform in a cdf built as Generator.choice builds it."""
    domains = model.space.domains
    cont = [i for i, d in enumerate(domains) if d.kind == "continuous"]
    other = [i for i, d in enumerate(domains) if d.kind != "continuous"]
    comps = rng.integers(model.n_components, size=n).tolist()
    uniforms = np.column_stack([rng.random((n, len(cont))), rng.random((n, len(other)))]).tolist()
    cdfs = {}
    for i, d in enumerate(domains):
        if d.kind != "continuous":
            pmf = (
                model.categorical_tables[i] if d.kind == "categorical"
                else reference_lattice_pmf(d, model.bandwidths[i], model.centers[i])
            )
            cdfs[i] = pmf.cumsum(axis=-1)
            cdfs[i] /= cdfs[i][..., -1:]
    draws = []
    for comp, row in zip(comps, uniforms):
        values = dict(zip(cont + other, row))
        for i, d in enumerate(domains):
            u = values[i]
            if d.kind == "continuous":
                center, bw = model.centers[i][comp], model.bandwidths[i]
                pa, qb = ndtr((d.lo - center) / bw), ndtr(-((d.hi - center) / bw))
                mass = 1.0 - pa - qb
                p = pa + u * mass
                z = ndtri(p) if p <= 0.5 else -ndtri(qb + (1.0 - u) * mass)
                values[i] = float(min(max(center + bw * z, d.lo), d.hi))
            elif d.kind == "integer":
                values[i] = int(d.lo) + int(cdfs[i][comp].searchsorted(u, side="right"))
            else:
                values[i] = d.choices[int(cdfs[i].searchsorted(u, side="right"))]
        draws.append(Config(tuple(values[i] for i in range(len(domains)))))
    return draws


def config_propose_next(history, rng):
    """Propose the next config by maximizing the good/bad density ratio over 64 candidates."""
    good, bad = config_split_history(history)
    good_model = config_fit_kde([t.config for t in good], history.space)
    bad_model = config_fit_kde([t.config for t in bad], history.space)
    candidates = config_sample_from_kde(good_model, rng, 64)
    g = config_density(good_model, candidates)
    best = int(np.argmax(g / config_density(bad_model, candidates)))
    return candidates[best], float(g[best])


def config_windowed_variance(history, g_model, current):
    """Population variance of f values, clip-weighted at 0.2, over the trailing window of 20 trials."""
    entries = [(t.config, t.f_value, t.proposal_density) for t in history.trials[-19:]]
    entries.append(current)
    g = config_density(g_model, [cfg for cfg, _, _ in entries])
    weighted = [importance_weight(gi, q, 0.2) * f for gi, (_, f, q) in zip(g, entries)]
    return float(np.var(weighted))


def config_build_g_model(history):
    """KDE over the configs of the top-0.15 trials ranked by raw f value."""
    ranked, n_top = config_rank_top(history, lambda t: t.f_value)
    return config_fit_kde([t.config for t in ranked[:n_top]], history.space)  # rank order fixes component order


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


def mixture_cdf(model, i):
    """The cdf of continuous dim i under the model: the mean over components of
    each kernel's normal cdf, truncated to [lo, hi]."""
    d, centers, bw = model.space.domains[i], model.centers[i], model.bandwidths[i]
    lo, hi = ndtr((d.lo - centers) / bw), ndtr((d.hi - centers) / bw)
    return lambda x: ((ndtr((np.asarray(x)[:, None] - centers) / bw) - lo) / (hi - lo)).mean(axis=1)


def chisquare_pvalue(values, pmf):
    """Chi-square p-value of integer values in 0..len(pmf)-1 against pmf; the
    smallest bins are pooled until no bin expects fewer than 5 draws."""
    observed, expected = np.bincount(values.astype(int), minlength=len(pmf)), pmf * len(values)
    order = np.argsort(expected, kind="stable")
    k = max(int(np.sum(expected < 5)), int(np.searchsorted(np.cumsum(expected[order]), 5.0)) + 1)
    pooled = [[a[order[:k]].sum(), *a[order[k:]]] for a in (observed, expected)]
    return chisquare(*pooled).pvalue if len(pooled[0]) > 1 else 1.0


DISTRIBUTION_ALPHA = 0.01  # family-wise over each test's dims, split evenly among them (Bonferroni)


class TestSampleFromKde:
    @pytest.mark.parametrize("layout", [None, "consecutive", "alternating"])
    def test_draws_follow_the_mixture(self, layout):
        # 3000 draws of each model on a fixed seed: each continuous dim is
        # KS-tested against the mixture's truncated cdf, each integer dim is
        # chi-square-tested against the mean of its components' lattice pmfs,
        # each categorical dim against its table.  The models come from four
        # random spaces and the three presets, or four spaces of members on
        # the bounds
        inputs = (
            [space_and_members(seed, strategy) for seed, strategy in enumerate([None] * 4 + list(STRATEGIES))]
            if layout is None else [bound_members(seed, layout) for seed in range(4)]
        )
        pvalues = {}
        for n, (space, members) in enumerate(inputs):
            model = fit_kde(encoded(space, members), space)
            draws = sample_from_kde(model, np.random.default_rng(n), 3000)
            for i, d in enumerate(space.domains):
                if d.kind == "continuous":
                    pvalues[n, d.name] = kstest(draws[:, i], mixture_cdf(model, i)).pvalue
                elif d.kind == "integer":
                    pmf = reference_lattice_pmf(d, model.bandwidths[i], model.centers[i]).mean(axis=0)
                    pvalues[n, d.name] = chisquare_pvalue(draws[:, i] - d.lo, pmf)
                else:
                    pvalues[n, d.name] = chisquare_pvalue(draws[:, i], model.categorical_tables[i])
        worst = min(pvalues, key=pvalues.get)
        assert pvalues[worst] > DISTRIBUTION_ALPHA / len(pvalues), (worst, pvalues[worst])

    @pytest.mark.parametrize("n", [1, 64])
    def test_draws_take_three_rng_blocks(self, n):
        # the declared stream: component indices, then the continuous dims'
        # uniforms, then the other dims', each block's columns in domain order;
        # the per-config oracle reads the same blocks draw by draw
        for seed, (space, members) in enumerate([
            space_and_members(0, None), space_and_members(1, "threshold_hybrid"),
            space_and_members(2, "trend_following"), bound_members(3, "alternating"),
        ]):
            model = fit_kde(encoded(space, members), space)
            rng, blocks, oracle = (np.random.default_rng(seed) for _ in range(3))
            draws = [decode(space, row) for row in sample_from_kde(model, rng, n)]
            n_cont = sum(d.kind == "continuous" for d in space.domains)
            blocks.integers(model.n_components, size=n)
            blocks.random((n, n_cont))
            blocks.random((n, space.m - n_cont))
            assert rng.bit_generator.state == blocks.bit_generator.state
            assert repr(draws) == repr(config_sample_from_kde(model, oracle, n))  # the reprs hold each value's type

    @pytest.mark.parametrize("n_members", [1, 100])
    def test_draws_at_edge_uniforms(self, n_members):
        # coincident members put every numeric dim at the bandwidth floor
        # width / min(100, n + 1): at 1 member the half-width cap, at 100 the
        # narrowest.  At 100 members slow_*'s kernel (bw 1.1) underflows to 0
        # about 43 values from its center, inside the 111-wide window; at 1
        # member (bw 55) base + u * Z(c) can round up past the window's last
        # sum, so only the cap keeps the draw in the domain.  Each integer draw
        # is the Generator.choice cdf index and never a zero-weight value.
        # These two floors are the extremes; at some member counts in between,
        # the two roundings put an edge uniform a value apart (README).  Each
        # continuous dim's members sit on lo or on hi, where one tail's
        # probability underflows to 0 at the floor; every draw is finite, in
        # [lo, hi] and does not decrease as u grows.
        edges = (0.0, 1 - 2**-53)
        space = strategy_preset("trend_following").param_space
        integer = [(i, d) for i, d in enumerate(space.domains) if d.kind == "integer"]
        cont = [i for i, d in enumerate(space.domains) if d.kind == "continuous"]
        lo, hi = (np.array([getattr(space.domains[i], bound) for i in cont]) for bound in ("lo", "hi"))
        base = list(sample_uniform(space, np.random.default_rng(0)).values)
        for v in range(10, 121):
            for i, d in integer:
                base[i] = v if d.name.startswith("slow") else 2 + v % 29
            for i in cont:
                base[i] = (space.domains[i].lo, space.domains[i].hi)[(v + i) % 2]
            model = fit_kde(encoded(space, [Config(tuple(base))] * n_members), space)
            rows = []
            for u in edges:
                edge_rng = SimpleNamespace(  # component 0, every uniform u
                    integers=lambda n, size: np.zeros(size, dtype=int),
                    random=lambda shape: np.full(shape, u),
                )
                (row,) = sample_from_kde(model, edge_rng, 1)
                rows.append(row[cont])
                for i, d in integer:
                    pmf = reference_lattice_pmf(d, model.bandwidths[i], model.centers[i][:1])[0]
                    cdf = pmf.cumsum()
                    cdf /= cdf[-1]
                    assert row[i] == d.lo + cdf.searchsorted(u, side="right")
                    assert pmf[int(row[i] - d.lo)] > 0
            assert np.all(np.isfinite(rows)) and np.all((lo <= rows) & (rows <= hi))
            assert np.all(rows[0] <= rows[1])


class TestFastPathMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from([None, *STRATEGIES]))
    def test_fit_matches_per_column_fit(self, seed, strategy):
        # each bandwidth is Scott's rule on its own column's np.std, and centers
        # and categorical tables equal the Config-based fit's, bit for bit; the
        # log normalisers, whose lattice sums come from one prefix sum per
        # integer dimension, match the direct sums over each lattice
        space, members = space_and_members(seed, strategy)
        model, reference = fit_kde(encoded(space, members), space), config_fit_kde(members, space)
        numeric = [i for i, d in enumerate(space.domains) if d.is_numeric]
        per_column = [
            config_scott_bandwidth(
                float(np.std(np.asarray([c.values[i] for c in members], dtype=float))),
                len(members),
                len(numeric),
                space.domains[i].hi - space.domains[i].lo,
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
