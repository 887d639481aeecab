import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_space
from tpe_as.space import Config, ParamDomain, ParamSpace, SpaceError, require_valid, sample_uniform
from tpe_as.surrogate import (
    DENSITY_FLOOR,
    SQRT2PI,
    History,
    SurrogateError,
    TrialRecord,
    acquisition,
    density,
    fit_kde,
    propose_next,
    sample_from_kde,
    split_history,
)


def make_history(j_scores, configs=None, space=None):
    history = History()
    for i, j in enumerate(j_scores, start=1):
        cfg = configs[i - 1] if configs else Config((0.5,))
        history.append(
            TrialRecord(
                step=i, config=cfg, f_value=j, j_score=j,
                proposal_density=1.0, lambda_used=0.0,
            )
        )
    return history


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
        assert [t.step for t in good] == [1, 2, 3]

    def test_threshold_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            history = make_history(list(rng.normal(size=n)))
            good, bad = split_history(history, 0.15)
            assert len(good) == max(2, math.ceil(0.15 * n))
            assert len(good) + len(bad) == n
            threshold = min(t.j_score for t in good)
            assert all(t.j_score <= threshold for t in bad)

    def test_insufficient_history(self):
        with pytest.raises(SurrogateError):
            split_history(make_history([1.0]), 0.15)


class TestFitKde:
    def test_single_member_peaks_at_center(self, unit_space):
        model = fit_kde([Config((0.5,))], unit_space)
        mid, lo, hi = density(model, [Config((0.5,)), Config((0.0,)), Config((1.0,))])
        assert mid > lo and mid > hi

    def test_categorical_smoothing_arithmetic(self):
        # 0.9 * {1, 0} + 0.1 * {0.5, 0.5}
        space = ParamSpace((ParamDomain("c", "categorical", choices=("A", "B")),))
        model = fit_kde([Config(("A",))] * 5, space)
        assert density(model, [Config(("A",)), Config(("B",))]) == pytest.approx([0.95, 0.05])

    def test_mc_normalization_1d(self, unit_space):
        rng = np.random.default_rng(2)
        members = [sample_uniform(unit_space, rng) for _ in range(10)]
        model = fit_kde(members, unit_space)
        xs = rng.uniform(0.0, 1.0, 100_000)
        integral = np.mean(density(model, [Config((float(x),)) for x in xs]))
        assert integral == pytest.approx(1.0, abs=0.05)

    def test_empty_members_error(self, unit_space):
        with pytest.raises(SurrogateError):
            fit_kde([], unit_space)

    def test_member_outside_space_error(self, unit_space):
        with pytest.raises(Exception):
            fit_kde([Config((2.0,))], unit_space)

    def test_categorical_tables_sum_to_one(self, mixed_space, rng):
        members = [sample_uniform(mixed_space, rng) for _ in range(20)]
        model = fit_kde(members, mixed_space)
        for table in model.categorical_tables.values():
            assert table.sum() == pytest.approx(1.0, abs=1e-9)


class TestDensity:
    def test_center_beats_far_tail(self, unit_space):
        model = fit_kde([Config((0.2,))], unit_space)
        center, tail = density(model, [Config((0.2,)), Config((0.95,))])
        assert center > tail

    def test_coincident_points_hit_stability_clip(self, mixed_space):
        # zero spread leaves no Scott bandwidth; the width/min(100, n+1)
        # stability clip takes over and tightens as the group grows
        cfg = Config((0.5, 5, "A"))
        for n in (1, 2, 5):
            model = fit_kde([cfg] * n, mixed_space)
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
        model = fit_kde(members, space)
        assert density(model, [Config(("A", "X"))]) == pytest.approx([1 / 2 * 1 / 3])

    def test_positivity_everywhere(self, mixed_space, rng):
        members = [sample_uniform(mixed_space, rng) for _ in range(5)]
        model = fit_kde(members, mixed_space)
        probes = [sample_uniform(mixed_space, rng) for _ in range(200)]
        assert np.all(density(model, probes) > 0)


def reference_density(model, config):
    """The per-config density the batch path replaced, kept as its oracle."""
    require_valid(model.space, config)
    per_component = np.ones(model.n_components)
    categorical_factor = 1.0
    for i, d in enumerate(model.space.domains):
        v = config.values[i]
        if d.kind == "continuous":
            bw = model.bandwidths[i]
            z = (float(v) - model.centers[i]) / bw
            pdf = np.exp(-0.5 * z * z) / (bw * SQRT2PI)
            per_component *= pdf / model.trunc_mass[i]
        elif d.kind == "integer":
            per_component *= model.lattice_pmf[i][:, int(v) - int(d.lo)]
        else:
            table = model.categorical_tables[i]
            categorical_factor *= float(table[d.choices.index(v)])
    return max(float(per_component.mean() * categorical_factor), DENSITY_FLOOR)


class TestBatchDensity:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_per_config(self, seed):
        # exact equality: trial logs depend on every bit of these densities
        rng = np.random.default_rng(seed)
        space = random_space(rng, max_dims=30)
        members = [sample_uniform(space, rng) for _ in range(int(rng.integers(1, 40)))]
        model = fit_kde(members, space)
        probes = members[:5]
        for _ in range(20):
            probes += [sample_uniform(space, rng), sample_from_kde(model, rng)]
        batch = density(model, probes)
        assert np.array_equal(batch, [reference_density(model, p) for p in probes])
        assert np.array_equal(batch, np.concatenate([density(model, [p]) for p in probes]))

    def test_invalid_config_rejected(self, unit_space):
        model = fit_kde([Config((0.5,))], unit_space)
        with pytest.raises(SpaceError):
            density(model, [Config((0.5,)), Config((2.0,))])


class TestAcquisition:
    def test_ratio_definition(self, unit_space, rng):
        good = fit_kde([Config((0.3,)), Config((0.4,))], unit_space)
        bad = fit_kde([Config((0.8,)), Config((0.9,))], unit_space)
        probe = Config((0.35,))
        expected = density(good, [probe]) / density(bad, [probe])
        assert acquisition(good, bad, [probe]) == pytest.approx(expected)

    def test_equal_models_give_one(self, unit_space):
        members = [Config((0.3,)), Config((0.6,))]
        good = fit_kde(members, unit_space)
        bad = fit_kde(members, unit_space)
        assert acquisition(good, bad, [Config((0.5,))]) == pytest.approx([1.0])

    def test_argmax_invariant_under_log(self, unit_space, rng):
        good = fit_kde([Config((0.3,)), Config((0.4,))], unit_space)
        bad = fit_kde([Config((0.7,)), Config((0.9,))], unit_space)
        candidates = [sample_uniform(unit_space, rng) for _ in range(50)]
        alphas = acquisition(good, bad, candidates)
        logs = np.log(density(good, candidates)) - np.log(density(bad, candidates))
        assert int(np.argmax(alphas)) == int(np.argmax(logs))

    def test_space_mismatch_error(self, unit_space, mixed_space, rng):
        good = fit_kde([Config((0.5,))], unit_space)
        bad = fit_kde([sample_uniform(mixed_space, rng)], mixed_space)
        with pytest.raises(SurrogateError):
            acquisition(good, bad, [Config((0.5,))])


class TestProposeNext:
    def make_clustered_history(self, space, rng, n=60):
        # good trials cluster mid-domain, bad trials at the edges
        history = History()
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
        history = History()
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
        model = fit_kde([t.config for t in good], unit_space)
        draw = sample_from_kde(model, np.random.default_rng(9))
        cfg, _ = propose_next(history, unit_space, 0.15, 1, np.random.default_rng(9))
        assert cfg == draw

    def test_proposals_track_good_cluster(self, unit_space, rng):
        history = self.make_clustered_history(unit_space, rng, n=80)
        hits = 0
        for s in range(100):
            cfg, _ = propose_next(history, unit_space, 0.15, 32, np.random.default_rng(s))
            if 0.3 <= cfg.values[0] <= 0.7:
                hits += 1
        assert hits >= 90
