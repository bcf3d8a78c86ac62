import numpy as np
import pytest
from conftest import random_spd
from hypothesis import given, settings
from hypothesis import strategies as st

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
from quadlik.core import NaO, QuadraticForm, spd_factor
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


def reference_draw(spec, theta, rng):
    """One draw in the documented stream order, written out step by step:
    the p chi-squares, the strict lower-triangle normals, one redraw of both
    if K fails ``np.linalg.cholesky``, then xi."""
    p, law = spec.dim, spec.curvature
    if isinstance(law, ConstantCurvature):
        k, factor = law.k[None].copy(), spd_factor(law.k)[None]
    else:
        for attempt in range(2):
            c = np.zeros((1, p, p))
            for i in range(p):
                c[:, i, i] = np.sqrt(rng.chisquare(law.dof - i, size=1))
            if p > 1:
                rows, cols = np.tril_indices(p, k=-1)
                c[:, rows, cols] = rng.standard_normal((1, rows.size))
            f = np.einsum("ij,njk->nik", spd_factor(law.scale), c)
            k = np.einsum("nik,njk->nij", f, f)
            try:
                factor = np.linalg.cholesky(k)
                break
            except np.linalg.LinAlgError:
                if attempt:
                    raise RuntimeError("Wishart draw numerically singular twice in a row")
    xi = rng.standard_normal((1, p))
    z = np.einsum("nij,j->ni", k, np.asarray(theta, dtype=float)) + np.einsum("nij,nj->ni", factor, xi)
    return LamnDraw(z[0], k[0])


class FixedStream:
    """A stand-in stream that hands out fixed chi-squares and normals in call order."""

    def __init__(self, chi, normals):
        self.chi, self.normals = list(chi), list(normals)

    def chisquare(self, df, size=None):
        return np.full(size, self.chi.pop(0))

    def standard_normal(self, size=None):
        n = int(np.prod(size))
        out, self.normals = self.normals[:n], self.normals[n:]
        return np.reshape(out, size)


def as_rows(draws, p):
    """Draws as the rows of a Wishart data stack, z then k row-major; a stack as is."""
    if isinstance(draws, np.ndarray):
        return draws
    return np.array([np.concatenate([d.z, d.k.ravel()]) for d in draws]).reshape(len(draws), p + p * p)


def assert_same_draws(stacked, looped, p):
    """Same draws, bit for bit, whether each side is a stack or a list of draws."""
    a, b = as_rows(stacked, p), as_rows(looped, p)
    assert a.shape == b.shape and np.array_equal(a, b)


@st.composite
def lamn_specs(draw):
    p = draw(st.integers(1, 4))
    g = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=p * p, max_size=p * p))).reshape(p, p)
    scale = g @ g.T + 0.1 * np.eye(p) + 0.05 * (np.ones((p, p)) - np.eye(p))
    if draw(st.booleans()):
        return LamnSpec(p, WishartCurvature(p - 1 + draw(st.floats(1.0, 10.0)), scale))
    return LamnSpec(p, ConstantCurvature(scale))


class TestStackedDraws:
    """A level's stacked draw equals the per-stream draws bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(spec=lamn_specs(), n=st.sampled_from([0, 1, 40]), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_looped_draws(self, spec, n, seed):
        model = wishart_lamn_model(spec)
        theta = derive_rng(seed, "theta").standard_normal(spec.dim)
        stacked = model.simulate_stack(theta, [derive_rng(seed, i) for i in range(n)])
        looped = [model.simulate(theta, derive_rng(seed, i)) for i in range(n)]
        assert_same_draws(stacked, looped, spec.dim)
        assert np.array_equal(model.stack_data(looped), stacked) and model.stack_data(stacked) is stacked
        assert_same_draws(looped, [reference_draw(spec, theta, derive_rng(seed, i)) for i in range(n)], spec.dim)


class TestStackedDrawRarePaths:
    spec = LamnSpec(3, WishartCurvature(5.0, np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]])))
    theta = np.array([0.5, -1.0, 0.25])

    def streams(self):
        return [derive_rng(81, i) for i in range(40)]

    def first_k(self, i):
        return sample_lamn_batch(self.spec, self.theta, 1, derive_rng(81, i))[1][0]

    @staticmethod
    def reject(monkeypatch, poisoned):
        """Make ``np.linalg.cholesky`` fail on any stack holding one of ``poisoned``."""
        real = np.linalg.cholesky

        def cholesky(a):
            mats = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
            if any(np.array_equal(m, q) for m in mats for q in poisoned):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)

    def test_rejected_row_is_redrawn_from_its_own_stream(self, monkeypatch):
        model = wishart_lamn_model(self.spec)
        before = model.simulate_stack(self.theta, self.streams())
        self.reject(monkeypatch, [self.first_k(7)])
        stacked = model.simulate_stack(self.theta, self.streams())
        assert_same_draws(stacked, [model.simulate(self.theta, rng) for rng in self.streams()], 3)
        assert_same_draws(stacked, [reference_draw(self.spec, self.theta, rng) for rng in self.streams()], 3)
        assert not np.array_equal(stacked[7, 3:], before[7, 3:])
        assert_same_draws(np.delete(stacked, 7, axis=0), np.delete(before, 7, axis=0), 3)

    def test_row_rejected_twice_raises(self, monkeypatch):
        model = wishart_lamn_model(self.spec)
        first = self.first_k(7)
        self.reject(monkeypatch, [first])
        second = model.simulate(self.theta, derive_rng(81, 7)).k
        self.reject(monkeypatch, [first, second])
        with pytest.raises(RuntimeError, match="singular twice"):
            [model.simulate(self.theta, rng) for rng in self.streams()]
        with pytest.raises(RuntimeError, match="singular twice"):
            model.simulate_stack(self.theta, self.streams())

    def test_row_below_the_pivot_floor_raises(self):
        # K = diag(1, 1e-20): LAPACK factors it, but its last pivot lies
        # below the floor 2 * eps * max|K|
        spec = LamnSpec(2, WishartCurvature(1.5, np.eye(2)))
        model = wishart_lamn_model(spec)
        fixed = lambda: FixedStream([1.0, 1e-20], [0.0, 0.3, -0.2])  # noqa: E731
        k = sample_lamn_batch(spec, np.zeros(2), 1, fixed())[1]
        np.linalg.cholesky(k)
        assert spd_factor(k[0]) is None
        streams = lambda: [derive_rng(82, 0), derive_rng(82, 1), fixed(), derive_rng(82, 2)]  # noqa: E731
        with pytest.raises(ValueError, match="draw curvature must be positive definite"):
            [model.simulate(np.zeros(2), rng) for rng in streams()]
        with pytest.raises(ValueError, match="draw curvature must be positive definite"):
            model.simulate_stack(np.zeros(2), streams())

    def test_stack_of_draws_checks_shapes(self):
        # draws of dimension 2 do not make a stack of the dimension-3 model
        with pytest.raises(ValueError, match="shape"):
            wishart_lamn_model(self.spec).stack_data([LamnDraw(np.zeros(2), np.eye(2))] * 2)


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
