import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpe_as.objective import (
    MAX_EPSILON,
    ObjectiveError,
    build_g_model,
    importance_weight,
    lagrangian_score,
    lambda_schedule,
    windowed_variance,
)
from conftest import encoded
from tpe_as.space import Config, ParamDomain, ParamSpace, sample_uniform
from tpe_as.surrogate import History, TrialRecord, density, fit_kde


class TestLambdaSchedule:
    def test_endpoint_is_exactly_one(self):
        assert lambda_schedule(500, 500) == 1.0
        assert lambda_schedule(900, 500) == 1.0

    def test_midpoint(self):
        assert lambda_schedule(250, 500) == pytest.approx(0.5, abs=1e-12)

    def test_first_step_small(self):
        # (1 - cos(pi/500)) / 2
        expected = (1 - math.cos(math.pi / 500)) / 2
        assert lambda_schedule(1, 500) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.87e-6, rel=1e-3)

    def test_monotone_nondecreasing(self):
        values = [lambda_schedule(t, 500) for t in range(1, 1001)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ObjectiveError):
            lambda_schedule(0, 500)
        with pytest.raises(ObjectiveError):
            lambda_schedule(1, 0)


class TestImportanceWeight:
    def test_unit_ratio(self):
        assert importance_weight(2.0, 2.0, 0.2) == 1.0

    def test_upper_clip(self):
        assert importance_weight(5.0, 1.0, 0.2) == pytest.approx(1.2)

    def test_lower_clip(self):
        assert importance_weight(0.1, 1.0, 0.2) == pytest.approx(0.8)

    @given(
        log_ratio=st.floats(min_value=math.log(1e-6), max_value=math.log(1e6)),
        epsilon=st.sampled_from([0.1, 0.2, 0.35]),
    )
    def test_always_inside_band(self, log_ratio, epsilon):
        w = importance_weight(math.exp(log_ratio), 1.0, epsilon)
        assert 1 - epsilon <= w <= 1 + epsilon

    @pytest.mark.parametrize(
        "g, q", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_rejects_nonpositive_density(self, g, q):
        # a NaN density would give a NaN weight, outside every clip band
        with pytest.raises(ObjectiveError, match="^densities must be positive and finite"):
            importance_weight(g, q, 0.2)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.1, MAX_EPSILON * 10])
    def test_rejects_epsilon_outside_finite_nonnegative(self, epsilon):
        # a nan or infinite epsilon would switch the clipping off, and one
        # above MAX_EPSILON could overflow the windowed variance
        with pytest.raises(ObjectiveError, match="epsilon"):
            importance_weight(5.0, 1.0, epsilon)


def _history_of(space, entries):
    history = History(space)
    for i, (cfg, f, q) in enumerate(entries, start=1):
        history.append(
            TrialRecord(step=i, config=cfg, f_value=f, j_score=f,
                        proposal_density=q, lambda_used=0.0)
        )
    return history


class TestWindowedVariance:
    def setup_method(self):
        self.space = ParamSpace((ParamDomain("x", "continuous", 0.0, 1.0),))
        self.g = fit_kde(encoded(self.space, [Config((0.4,)), Config((0.6,))]), self.space)

    def test_constant_sequence_zero_variance(self):
        cfg = Config((0.5,))
        q = density(self.g, encoded(self.space, [cfg]))[0]  # weight exactly 1 at matching densities
        history = _history_of(self.space, [(cfg, 2.0, q)] * 5)
        assert windowed_variance(history, self.g, (cfg, 2.0, q)) == pytest.approx(0.0)

    def test_two_point_population_variance(self):
        # weighted values {1.0, 3.0}: mean 2, population variance 1
        cfg = Config((0.5,))
        q = density(self.g, encoded(self.space, [cfg]))[0]
        history = _history_of(self.space, [(cfg, 1.0, q)])
        assert windowed_variance(history, self.g, (cfg, 3.0, q)) == pytest.approx(1.0)

    def test_single_entry_zero(self):
        cfg = Config((0.5,))
        assert windowed_variance(History(self.space), self.g, (cfg, 3.0, 1.0)) == 0.0

    def test_window_is_the_last_twenty_trials(self):
        # unit weights: the current trial and the 19 before it, none earlier
        rng = np.random.default_rng(0)
        cfg = Config((0.5,))
        q = density(self.g, encoded(self.space, [cfg]))[0]
        tail = [(cfg, float(rng.normal()), q) for _ in range(19)]
        current = (cfg, 1.5, q)
        expected = float(np.var([f for _, f, _ in tail] + [1.5]))
        for prefix in ([], [(cfg, float(rng.normal(10)), q) for _ in range(15)]):
            history = _history_of(self.space, prefix + tail)
            assert windowed_variance(history, self.g, current) == pytest.approx(expected, rel=1e-12)

    def test_weights_clip_at_two_tenths(self):
        # proposal densities 1000x above or below g put every weight on a
        # clip bound, 0.8 or 1.2
        rng = np.random.default_rng(1)
        configs = [Config((float(rng.uniform()),)) for _ in range(6)]
        g = density(self.g, encoded(self.space, configs))
        scale = [1e3, 1e-3, 1e-3, 1e3, 1e-3, 1e3]
        entries = [(cfg, float(rng.normal()), float(gi * s)) for cfg, gi, s in zip(configs, g, scale)]
        history = _history_of(self.space, entries[:-1])
        weighted = [(0.8 if s > 1 else 1.2) * f for (_, f, _), s in zip(entries, scale)]
        assert windowed_variance(history, self.g, entries[-1]) == pytest.approx(float(np.var(weighted)), rel=1e-12)


class TestLagrangianScore:
    def test_zero_lambda_is_identity(self):
        assert lagrangian_score(1.7, 42.0, 0.0) == 1.7

    def test_arithmetic(self):
        assert lagrangian_score(2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_reported_trajectory_values(self):
        # mean performance 3.288 with variance 0.309 at full penalty
        assert lagrangian_score(3.288, 0.309, 1.0) == pytest.approx(2.979)

    def test_negative_variance_rejected(self):
        with pytest.raises(ObjectiveError, match="^variance must be nonnegative$"):
            lagrangian_score(1.0, -1e-12, 1.0)


class TestBuildGModel:
    def test_two_trials_two_components(self, unit_space, rng):
        history = _history_of(
            unit_space,
            [(sample_uniform(unit_space, rng), float(rng.normal()), 1.0) for _ in range(2)],
        )
        model = build_g_model(history)
        assert model.n_components == 2

    def test_ranks_by_f_not_j(self, unit_space):
        history = History(unit_space)
        # high f but terrible j: still belongs in the target model support
        history.append(TrialRecord(1, Config((0.9,)), f_value=5.0, j_score=-10.0,
                                   proposal_density=1.0, lambda_used=1.0))
        history.append(TrialRecord(2, Config((0.1,)), f_value=1.0, j_score=1.0,
                                   proposal_density=1.0, lambda_used=0.0))
        history.append(TrialRecord(3, Config((0.2,)), f_value=0.5, j_score=0.5,
                                   proposal_density=1.0, lambda_used=0.0))
        model = build_g_model(history)
        assert model.n_components == 2
        centers = sorted(model.centers[0])
        assert centers == pytest.approx([0.1, 0.9])

    def test_top_decile_denser_than_bottom(self, unit_space):
        # f peaks at x=0.5; the fitted model should favor top-decile configs
        rng = np.random.default_rng(3)
        entries = []
        for _ in range(100):
            x = float(rng.uniform())
            entries.append((Config((x,)), -((x - 0.5) ** 2), 1.0))
        history = _history_of(unit_space, entries)
        model = build_g_model(history)
        ranked = sorted(history.trials, key=lambda t: -t.f_value)
        top = np.mean(density(model, encoded(unit_space, [t.config for t in ranked[:10]])))
        bottom = np.mean(density(model, encoded(unit_space, [t.config for t in ranked[-10:]])))
        assert top > bottom
