import numpy as np
import pytest
from conftest import random_spd

from quadlik import (
    ConstantCurvature,
    LamnDraw,
    LamnSpec,
    WishartCurvature,
    contiguity_estimate,
    derive_rng,
    hessian_invariance_test,
    is_nao,
    lamn_loglik,
    lan_normal_location,
    model_contiguity_estimate,
    quadratic_mle,
    sample_lamn,
    sample_lamn_batch,
    score_normality_test,
    wishart_lamn_model,
)
from quadlik.core import NaO, QuadraticForm
from quadlik.models import Ar1Model


def wishart_spec(p=2, dof=5.0):
    return LamnSpec(p, WishartCurvature(dof, np.eye(p) / dof))


class TestSpecValidation:
    def test_constant_must_be_spd(self):
        with pytest.raises(ValueError, match="positive definite"):
            ConstantCurvature(np.diag([1.0, -1.0]))

    def test_wishart_dof_floor(self):
        with pytest.raises(ValueError, match="dof"):
            WishartCurvature(0.5, np.eye(2))

    def test_dim_agreement(self):
        with pytest.raises(ValueError, match="dimension"):
            LamnSpec(3, ConstantCurvature(np.eye(2)))

    def test_draw_requires_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            LamnDraw([0.0, 0.0], np.diag([1.0, 0.0]))


class TestScaleFactorCache:
    def test_scale_is_factored_once_per_law(self, monkeypatch):
        import quadlik.core

        scale = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]]) / 5.0
        seen = []
        original = quadlik.core.cholesky_pivots

        def counting(m):
            seen.append(np.array_equal(m, scale))
            return original(m)

        monkeypatch.setattr(quadlik.core, "cholesky_pivots", counting)
        spec = LamnSpec(3, WishartCurvature(5.0, scale))
        draws = [sample_lamn(spec, np.zeros(3), derive_rng(71, i)) for i in range(100)]
        assert len(draws) == 100 and len(seen) > 100
        assert sum(seen) == 1


class TestSampling:
    def test_constant_k_mean_and_covariance(self):
        k = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = LamnSpec(2, ConstantCurvature(k))
        z, kk = sample_lamn_batch(spec, np.zeros(2), 100_000, derive_rng(11))
        assert np.allclose(kk[0], k)
        se = np.sqrt(np.diag(k) / z.shape[0])
        assert np.all(np.abs(z.mean(axis=0)) < 4 * se)
        cov = np.cov(z.T)
        frob = np.linalg.norm(cov - k) / np.linalg.norm(k)
        assert frob < 0.05

    def test_identity_k_shift(self):
        spec = LamnSpec(2, ConstantCurvature(np.eye(2)))
        t = np.array([1.5, -2.0])
        z, _ = sample_lamn_batch(spec, t, 50_000, derive_rng(12))
        centered = z - t
        assert np.all(np.abs(centered.mean(axis=0)) < 4 / np.sqrt(z.shape[0]))
        assert np.linalg.norm(np.cov(centered.T) - np.eye(2)) < 0.05

    def test_wishart_k_law_free_of_theta(self):
        spec = wishart_spec()
        rng_a, rng_b = derive_rng(13, 0), derive_rng(13, 1)
        _, k0 = sample_lamn_batch(spec, np.zeros(2), 4000, rng_a)
        _, k1 = sample_lamn_batch(spec, np.array([2.0, -1.0]), 4000, rng_b)
        from scipy.stats import ks_2samp

        eig0 = np.linalg.eigvalsh(k0).ravel()
        eig1 = np.linalg.eigvalsh(k1).ravel()
        assert ks_2samp(eig0, eig1).pvalue > 0.01

    def test_wishart_mean_is_dof_times_scale(self):
        spec = wishart_spec(p=2, dof=5.0)
        _, k = sample_lamn_batch(spec, np.zeros(2), 50_000, derive_rng(21))
        assert np.linalg.norm(k.mean(axis=0) - np.eye(2)) < 0.02

    def test_single_draw_is_batch_head(self):
        spec = wishart_spec()
        draw = sample_lamn(spec, np.zeros(2), derive_rng(5))
        z, k = sample_lamn_batch(spec, np.zeros(2), 1, derive_rng(5))
        assert np.array_equal(draw.z, z[0])
        assert np.array_equal(draw.k, k[0])

    def test_all_draws_positive_semidefinite(self):
        # curvature realizations must never have eigenvalues materially below zero
        for spec in (wishart_spec(), LamnSpec(2, ConstantCurvature(np.array([[2.0, 0.9], [0.9, 1.0]])))):
            _, k = sample_lamn_batch(spec, np.zeros(2), 2000, derive_rng(31))
            eigs = np.linalg.eigvalsh(k)
            scale = np.abs(k).max()
            assert eigs.min() >= -1e-10 * scale


class TestLamnLoglik:
    def test_zero_at_zero(self):
        draw = LamnDraw([1.0], [[1.0]])
        assert lamn_loglik(draw, [0.0]) == 0.0

    def test_direct_value(self):
        draw = LamnDraw([1.0], [[1.0]])
        assert lamn_loglik(draw, [1.0]) == pytest.approx(0.5)

    def test_maximizer_is_solve(self):
        rng = np.random.default_rng(3)
        k = random_spd(rng, 3)
        z = rng.standard_normal(3)
        draw = LamnDraw(z, k)
        best = quadratic_mle(QuadraticForm(0.0, z, k))
        grid = [best + 0.1 * rng.standard_normal(3) for _ in range(50)]
        best_val = lamn_loglik(draw, best)
        assert all(lamn_loglik(draw, g) <= best_val + 1e-12 for g in grid)

    def test_nao_propagates(self):
        assert is_nao(lamn_loglik(LamnDraw([1.0], [[1.0]]), NaO))


class TestContiguity:
    def test_delta_zero_exact(self):
        mean, se = contiguity_estimate(wishart_spec(), np.zeros(2), 100, 7)
        assert mean == 1.0
        assert se == 0.0

    def test_constant_k_lognormal_identity(self):
        spec = LamnSpec(1, ConstantCurvature(np.eye(1)))
        mean, se = contiguity_estimate(spec, [1.0], 100_000, 19)
        assert abs(mean - 1.0) <= 3 * se

    def test_wishart_random_delta(self):
        rng = np.random.default_rng(4)
        spec = wishart_spec()
        for i in range(3):
            delta = rng.uniform(-1, 1, size=2)
            mean, se = contiguity_estimate(spec, delta, 100_000, 23, stream=i)
            assert abs(mean - 1.0) <= 4 * se

    def test_model_contiguity_fatou_side(self):
        model = Ar1Model(20, x0=1.0)
        mean, se, n_nao = model_contiguity_estimate(model, [0.3], [0.2], 4000, 5)
        assert n_nao == 0
        assert mean <= 1.0 + 4 * se
        assert abs(mean - 1.0) <= 4 * se  # AR(1) is a genuine likelihood


class TestInvarianceTest:
    def test_constant_k_never_rejects(self):
        model = lan_normal_location(np.array([[2.0, 0.4], [0.4, 1.0]]))
        report = hessian_invariance_test(model, np.zeros(2), np.ones(2), 200, 11)
        assert report.p_value == 1.0
        assert report.statistic == 0.0

    def test_wishart_model_accepts(self):
        model = wishart_lamn_model(wishart_spec())
        report = hessian_invariance_test(model, np.zeros(2), np.array([1.0, -1.0]), 1500, 13)
        assert report.p_value > 0.01

    def test_ar1_rejects_across_parameters(self):
        model = Ar1Model(50, x0=1.0)
        report = hessian_invariance_test(model, np.array([0.0]), np.array([0.9]), 2000, 17)
        assert report.p_value < 0.01

    def test_nao_accounting(self):
        model = wishart_lamn_model(wishart_spec())
        report = hessian_invariance_test(model, np.zeros(2), np.ones(2), 300, 19)
        assert report.n_nao == 0


class TestScoreNormality:
    def test_wishart_model_accepts(self):
        model = wishart_lamn_model(wishart_spec())
        report = score_normality_test(model, np.array([0.3, -0.1]), 2000, 29)
        assert report.p_value > 0.01
        assert report.n_nao == 0

    def test_constant_k_accepts(self):
        model = lan_normal_location(np.array([[3.0, 0.0], [0.0, 0.5]]))
        report = score_normality_test(model, np.zeros(2), 2000, 31)
        assert report.p_value > 0.01

    def test_ar1_small_n_documented_behavior(self):
        # with only five observations the normal approximation is rough;
        # run the test and record that the p-value is a valid probability
        model = Ar1Model(5, x0=1.0)
        report = score_normality_test(model, np.array([0.5]), 2000, 37)
        assert 0.0 <= report.p_value <= 1.0

    def test_workers_do_not_change_results(self):
        model = wishart_lamn_model(wishart_spec())
        a = score_normality_test(model, np.zeros(2), 300, 41)
        b = score_normality_test(model, np.zeros(2), 300, 41)
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic
