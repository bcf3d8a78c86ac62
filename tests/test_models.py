import warnings

import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian, natural_loglik, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlik import (
    AnimalModel,
    AnimalParams,
    Ar1Model,
    ExponentialRateIid,
    LamnSpec,
    NormalLocationIid,
    Pedigree,
    PedigreeRecord,
    WishartCurvature,
    ar1_expected_info,
    ar1_simulate_paths,
    derive_rng,
    fit_mle,
    is_nao,
    lan_normal_location,
    load_pedigree_csv,
    load_vector_csv,
    local_shift,
    logit_heritability,
    make_wald_pivot,
    parametric_bootstrap,
    quadratic_mle,
    relationship_matrix,
    synthetic_pedigree,
    wishart_lamn_model,
)
from quadlik.cli import _heritability_pivot, _heritability_variance
from quadlik.core import QuadraticForm, StackedEval, spd_factor
from quadlik.models import DataFormatError, LanNormalLocation, PedigreeError, WishartLamnModel


class _ZeroNoise:
    """rng stub whose normal draws are all zero."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class TestLanNormalLocation:
    def test_mle_is_solve(self):
        k = np.array([[2.0, 0.5], [0.5, 1.5]])
        model = lan_normal_location(k)
        z = np.array([0.7, -0.3])
        fit = fit_mle(model, z)
        assert fit.converged
        expected = quadratic_mle(QuadraticForm(0.0, z, k))
        assert np.allclose(fit.theta_hat, expected, atol=1e-10)

    def test_quadraticity_is_zero(self):
        from quadlik import GridBox, local_shift, quadraticity_report

        model = lan_normal_location(np.diag([2.0, 1.0]))
        data = np.array([0.5, 0.5])
        q = local_shift(model, data, psi=[0.1, -0.1])
        report = quadraticity_report(q, np.zeros(2), GridBox([-1.0, -1.0], [1.0, 1.0], [7, 7]))
        assert report.d0 < 1e-12 and report.d1 < 1e-12 and report.d2 == 0.0

    def test_simulation_law(self):
        k = np.array([[2.0, 0.0], [0.0, 0.5]])
        model = lan_normal_location(k)
        theta = np.array([1.0, -1.0])
        rng = derive_rng(3)
        draws = np.array([model.simulate(theta, rng) for _ in range(20_000)])
        assert np.allclose(draws.mean(axis=0), k @ theta, atol=0.05)
        assert np.allclose(np.cov(draws.T), k, atol=0.05)


class TestAr1Simulation:
    def test_theta_zero_is_iid_normal(self):
        inner = ar1_simulate_paths(0.0, 10_000, 0.0, 1, derive_rng(5))[0, 1:]
        assert abs(inner.var(ddof=1) - 1.0) < 4 * np.sqrt(2.0 / 10_000)

    def test_degenerate_noise_constant_path(self):
        assert np.all(ar1_simulate_paths(1.0, 10, 2.5, 1, _ZeroNoise()) == 2.5)

    def test_deterministic_under_seed(self):
        a = ar1_simulate_paths(0.5, 50, 1.0, 1, derive_rng(9, 1))
        b = ar1_simulate_paths(0.5, 50, 1.0, 1, derive_rng(9, 1))
        assert np.array_equal(a, b)

    def test_path_is_the_scalar_recursion(self):
        for theta, n, seed in [(-0.9, 1, 0), (0.5, 17, 1), (1.3, 200, 2)]:
            x = Ar1Model(n, 1.5).simulate(np.array([theta]), derive_rng(seed))
            expected = [1.5]
            for noise in derive_rng(seed).standard_normal(n):
                expected.append(theta * expected[-1] + noise)
            assert np.array_equal(x, expected)
        with pytest.raises(ValueError, match="at least 1"):
            Ar1Model(0)

    def test_paths_match_scalar_path_shape(self):
        paths = ar1_simulate_paths(0.5, 20, 1.0, 100, derive_rng(2))
        assert paths.shape == (100, 21)
        assert np.all(paths[:, 0] == 1.0)


class TestAr1Loglik:
    def test_all_zero_path(self):
        ev = Ar1Model(5).objective(np.zeros(6))(0.3)
        assert ev.value == 0.0 and ev.gradient[0] == 0.0 and ev.hessian[0, 0] == 0.0

    def test_perfect_fit(self):
        ev = Ar1Model(1).objective(np.array([1.0, 1.0]))(1.0)
        assert ev.value == 0.0
        assert ev.gradient[0] == 0.0
        assert ev.hessian[0, 0] == -1.0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            q = Ar1Model(30).objective(ar1_simulate_paths(0.6, 30, 1.0, 1, rng)[0])
            theta = rng.uniform(-1, 1)
            ev = q(theta)
            value = lambda t: q(t).value
            assert rel_err(ev.gradient, fd_gradient(value, np.array([theta]))) < 1e-6
            assert rel_err(ev.hessian, fd_hessian(value, np.array([theta]))) < 1e-4

    def test_hessian_free_of_theta(self):
        q = Ar1Model(25).objective(ar1_simulate_paths(0.4, 25, 1.0, 1, derive_rng(8))[0])
        h = [q(t).hessian[0, 0] for t in (-0.9, 0.0, 0.7, 2.0)]
        assert len(set(h)) == 1


def ar1_info_recursion(theta, n, x0):
    """The second-moment recursion ``e_j = theta^2 e_{j-1} + 1``, ``e_0 = x0^2``,
    summed step by step: the oracle of the closed form."""
    e = x0 * x0
    total = e
    for _ in range(n - 1):
        e = theta * theta * e + 1.0
        total += e
    return total


class TestAr1ExpectedInfo:
    def test_n_one_is_x0_squared(self):
        assert ar1_expected_info(0.7, 1, 2.0) == 4.0

    def test_theta_zero_hand_value(self):
        # e = 4, 1, 1, 1, 1 summing to 8
        assert ar1_expected_info(0.0, 5, 2.0) == 8.0

    def test_recursion_hand_value(self):
        assert ar1_expected_info(0.5, 3, 1.0) == pytest.approx(3.5625)

    def test_unit_root_allowed(self):
        # theta = 1: e_j = x0^2 + j
        assert ar1_expected_info(1.0, 4, 1.0) == pytest.approx(1 + 2 + 3 + 4)

    @pytest.mark.parametrize("theta", [1.0, -1.0])
    def test_unit_root_is_exact(self, theta):
        for n, x0 in ((1, 0.3), (7, 0.3), (10**5, 2.5), (3, 0.0)):
            assert ar1_expected_info(theta, n, x0) == x0 * x0 * n + n * (n - 1) / 2

    @pytest.mark.parametrize("theta", [0.3, 0.999999, 1.0, 1.05, -1.0])
    def test_closed_form_equals_the_recursion(self, theta):
        # the recursion rounds once or twice a step and its error grows with n:
        # a relative bound of 4 (n + 8) eps, fixed before the first run
        eps = np.finfo(float).eps
        for n in (1, 2, 3, 10, 100, 1000, 10**4, 10**5):
            for x0 in (0.0, 0.3, 1.0, 7.0):
                loop, closed = ar1_info_recursion(theta, n, x0), ar1_expected_info(theta, n, x0)
                assert closed == loop or abs(closed - loop) <= 4 * (n + 8) * eps * abs(loop), (n, x0, closed, loop)

    def test_large_n_is_the_geometric_sum(self):
        # 10**12 steps of the recursion would take hours; S = 4/3 at theta 0.5
        assert ar1_expected_info(0.5, 10**12, 1.0) == pytest.approx(4 / 3 + (10**12 - 4 / 3) / 0.75, rel=1e-14)

    def test_monte_carlo_cross_check(self):
        for theta, n in ((0.5, 3), (0.9, 10)):
            paths = ar1_simulate_paths(theta, n, 1.0, 100_000, derive_rng(14))
            info = np.sum(paths[:, :-1] ** 2, axis=1)
            se = info.std(ddof=1) / np.sqrt(info.size)
            assert abs(info.mean() - ar1_expected_info(theta, n, 1.0)) < 4 * se


class TestPedigree:
    def test_rejects_forward_reference(self):
        with pytest.raises(PedigreeError, match="precede"):
            Pedigree((PedigreeRecord(1, 2, None), PedigreeRecord(2, None, None)))

    def test_rejects_self_parent(self):
        with pytest.raises(PedigreeError, match="own parent"):
            Pedigree((PedigreeRecord(1, 1, None),))

    def test_rejects_duplicates(self):
        with pytest.raises(PedigreeError, match="duplicate"):
            Pedigree((PedigreeRecord(1, None, None), PedigreeRecord(1, None, None)))


class TestRelationshipMatrix:
    def test_founders_identity(self):
        ped = Pedigree(tuple(PedigreeRecord(i + 1, None, None) for i in range(5)))
        assert np.array_equal(relationship_matrix(ped).a, np.eye(5))

    def test_trio(self):
        ped = Pedigree(
            (
                PedigreeRecord(1, None, None),
                PedigreeRecord(2, None, None),
                PedigreeRecord(3, 1, 2),
            )
        )
        expected = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        assert np.array_equal(relationship_matrix(ped).a, expected)

    def test_full_sibs(self):
        ped = Pedigree(
            (
                PedigreeRecord(1, None, None),
                PedigreeRecord(2, None, None),
                PedigreeRecord(3, 1, 2),
                PedigreeRecord(4, 1, 2),
            )
        )
        a = relationship_matrix(ped).a
        assert a[2, 3] == 0.5
        assert a[2, 2] == 1.0 and a[3, 3] == 1.0

    def test_inbred_diagonal(self):
        # parent-offspring mating: child of 3 and 1 has a_ii = 1 + a_{13}/2
        ped = Pedigree(
            (
                PedigreeRecord(1, None, None),
                PedigreeRecord(2, None, None),
                PedigreeRecord(3, 1, 2),
                PedigreeRecord(4, 3, 1),
            )
        )
        a = relationship_matrix(ped).a
        assert a[3, 3] == 1.25

    def test_random_pedigrees_are_psd(self):
        for seed, n_per, gens in ((1, 40, 2), (2, 100, 3)):
            ped = synthetic_pedigree(20, n_per, gens, seed)
            a = relationship_matrix(ped).a
            n = a.shape[0]
            assert np.linalg.eigvalsh(a).min() >= -1e-10 * n

    def test_large_pedigree_psd(self):
        ped = synthetic_pedigree(50, 150, 3, 7)
        a = relationship_matrix(ped).a
        assert a.shape == (500, 500)
        assert np.linalg.eigvalsh(a).min() >= -1e-10 * 500


class TestAnimalLoglik:
    def _instance(self, seed, n=12):
        ped = synthetic_pedigree(max(4, n // 3), n - max(4, n // 3), 1, seed)
        model = AnimalModel(relationship_matrix(ped))
        rng = derive_rng(seed, 1)
        params = AnimalParams(0.5, 1.2, 0.8)
        y = model.simulate_response(params.mu, params.sigma2, params.tau2, rng)
        return model, y, params

    def test_identity_a_reduces_to_iid(self):
        ped = Pedigree(tuple(PedigreeRecord(i + 1, None, None) for i in range(10)))
        model = AnimalModel(relationship_matrix(ped))
        y = model.simulate_response(1.0, 0.6, 0.4, derive_rng(4))
        _, _, hessian = natural_loglik(model, y, [1.0, 0.5, 0.5])
        # information in the variance pair is singular: only the sum is identified
        info_vv = -hessian[1:, 1:]
        assert spd_factor(info_vv) is None
        # mu maximizer is the sample mean: gradient in mu vanishes there
        _, gradient_at_mean, _ = natural_loglik(model, y, [float(y.mean()), 0.5, 0.5])
        assert abs(gradient_at_mean[0]) < 1e-10

    def test_finite_difference_oracle_natural_coords(self):
        rng = np.random.default_rng(3)
        for seed in (10, 11, 12):
            model, y, params = self._instance(seed)

            def value(v):
                return natural_loglik(model, y, v)[0]

            point = np.array([params.mu, params.sigma2, params.tau2])
            _, gradient, hessian = natural_loglik(model, y, point)
            assert rel_err(gradient, fd_gradient(value, point)) < 1e-6
            assert rel_err(hessian, fd_hessian(value, point, h=1e-4)) < 1e-4

    def test_finite_difference_oracle_log_coords(self):
        model, y, params = self._instance(21)
        phi = AnimalModel.params_to_phi(params)
        q = model.objective(y)
        ev = q(phi)
        value = lambda v: q(v).value
        assert rel_err(ev.gradient, fd_gradient(value, phi)) < 1e-6
        assert rel_err(ev.hessian, fd_hessian(value, phi, h=1e-4)) < 1e-4

    def test_permutation_invariance(self):
        model, y, params = self._instance(31)
        rng = np.random.default_rng(0)
        perm = rng.permutation(model.n_individuals)
        from quadlik import RelationshipMatrix

        a = model.relationship.a
        model_perm = AnimalModel(RelationshipMatrix(a[np.ix_(perm, perm)]))
        point = [params.mu, params.sigma2, params.tau2]
        value, gradient, _ = natural_loglik(model, y, point)
        value_perm, gradient_perm, _ = natural_loglik(model_perm, y[perm], point)
        assert value_perm == pytest.approx(value, rel=1e-10)
        assert np.allclose(gradient_perm, gradient, rtol=1e-8, atol=1e-10)

    def test_singular_covariance_gives_nao(self):
        model, y, _ = self._instance(41)
        value, gradient, hessian = natural_loglik(model, y, [0.0, 1e-320, 1e-320])
        assert np.isnan(value) and np.isnan(gradient).all() and np.isnan(hessian).all()


class TestAnimalRotation:
    """The response is rotated once per data set; evaluations reuse Q'y."""

    MODEL = AnimalModel(relationship_matrix(synthetic_pedigree(6, 9, 2, 17)))
    TRUTH = AnimalModel.params_to_phi(AnimalParams(0.5, 1.2, 0.8))

    @settings(max_examples=80, deadline=None)
    @given(
        phi=st.tuples(st.floats(-3, 3), st.floats(-5, 5), st.floats(-5, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_objective_matches_eval_bitwise(self, phi, seed):
        # objective(Q'y) is a row of the stacked objective of Q'y rows
        model = self.MODEL
        y = model.simulate_response(0.5, 1.2, 0.8, derive_rng(seed))
        qty = model.parse_data(y)
        phi = np.array(phi)
        ev = model.objective(qty)(phi)
        thetas = np.array([self.TRUTH, phi])
        value, gradient, hessian = StackedEval.split(model.stacked_objective([qty, qty])(np.arange(2), thetas).packed, 3)
        assert value[1] == ev.value
        assert np.array_equal(gradient[1], ev.gradient)
        assert np.array_equal(hessian[1], ev.hessian)
        # the natural-scale likelihood, reached through the chain rule
        s2, t2 = float(np.exp(phi[1])), float(np.exp(phi[2]))
        value, gradient, _ = natural_loglik(model, y, [phi[0], s2, t2])
        assert value == pytest.approx(ev.value, rel=1e-12, abs=1e-12)
        chain = gradient * np.array([1.0, s2, t2])
        assert np.allclose(chain, ev.gradient, rtol=1e-10, atol=1e-12)

    def test_one_rotation_per_objective(self, monkeypatch):
        calls = []
        original = AnimalModel.rotate

        def counting(model, y):
            calls.append(1)
            return original(model, y)

        monkeypatch.setattr(AnimalModel, "rotate", counting)
        model = self.MODEL
        # a raw response is rotated once, when it is read; the data set is Q'y
        qty = model.parse_data(model.simulate_response(0.5, 1.2, 0.8, derive_rng(4)))
        assert len(calls) == 1
        q = model.objective(qty)
        for i in range(20):
            q(self.TRUTH + 0.05 * i)
        fit = fit_mle(model, qty)
        assert fit.converged and fit.trace.steps > 0
        local_shift(model, qty, fit.theta_hat)(np.full(3, 0.1))
        model.stacked_objective([qty, qty])(np.arange(2), np.array([self.TRUTH, self.TRUTH]))
        assert len(calls) == 1

    @pytest.mark.parametrize("pivot_factory", [_heritability_pivot, make_wald_pivot], ids=["heritability", "wald"])
    def test_one_rotation_per_bootstrap_replicate(self, monkeypatch, pivot_factory):
        # each replicate is drawn already rotated, as one row of the level's
        # one Q'Y product, and its start, refit and pivot all share that row
        calls = {"rotate": 0, "simulate_rotated": 0}
        for name, original in [(name, getattr(AnimalModel, name)) for name in calls]:

            def counting(model, *args, name=name, original=original):
                calls[name] += 1
                return original(model, *args)

            monkeypatch.setattr(AnimalModel, name, counting)
        model, B = self.MODEL, 50
        samples = parametric_bootstrap(model, self.TRUTH, B, pivot_factory(model), seed=8)
        assert samples.values.size > 0
        assert calls == {"rotate": 0, "simulate_rotated": 1}


class TestLargeLogVariance:
    """A log variance past about 355 overflows the log-scale products: NaO, quietly."""

    MODEL = TestAnimalRotation.MODEL
    TRUTH = TestAnimalRotation.TRUTH

    @pytest.mark.parametrize("phi", [[0.1, 0.0, 500.0], [0.1, 500.0, 0.0], [0.1, 0.0, 356.0]])
    def test_overflow_is_nao_without_a_warning(self, phi):
        model = self.MODEL
        y = model.simulate(self.TRUTH, derive_rng(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_nao(model.objective(y)(np.array(phi)))
            ev = model.stacked_objective([y, y])(np.array([0, 1]), np.array([phi, self.TRUTH]))
        assert ev.ok.tolist() == [False, True]


class TestOneEigendecomposition:
    PEDIGREE = synthetic_pedigree(5, 6, 2, 23)

    def test_one_eigh_per_model(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(m, *args, **kwargs):
            calls.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        a = relationship_matrix(self.PEDIGREE)
        model = AnimalModel(a)
        n = model.n_individuals
        assert calls == [(n, n)]
        params = AnimalParams(0.3, 1.1, 0.9)
        phi = model.params_to_phi(params)
        y = model.simulate_response(params.mu, params.sigma2, params.tau2, derive_rng(1))
        model.simulate_response(0.0, 0.0, 1.0, derive_rng(2))
        natural_loglik(model, y, [params.mu, params.sigma2, params.tau2])
        qty = model.parse_data(y)
        model.objective(qty)(phi)
        model.starts(model.simulate_stack([phi], [derive_rng(3, i) for i in range(4)]))
        fit_mle(model, qty)
        parametric_bootstrap(model, phi, 10, _heritability_pivot(model), seed=4)
        # the other decompositions of a fit and a bootstrap are of 3 x 3 informations
        assert calls.count((n, n)) == 1
        # a second model, even of the same matrix, runs its own
        AnimalModel(a)
        assert calls.count((n, n)) == 2

    def test_the_matrix_is_left_as_built(self):
        a = relationship_matrix(self.PEDIGREE)
        before = dict(vars(a))
        model = AnimalModel(a)
        phi = model.params_to_phi(AnimalParams(0.3, 1.1, 0.9))
        qty = model.simulate(phi, derive_rng(5))
        model.starts(np.array([qty]))
        fit_mle(model, qty)
        parametric_bootstrap(model, phi, 10, _heritability_pivot(model), seed=6)
        assert vars(a).keys() == before.keys()
        assert all(vars(a)[key] is value for key, value in before.items())


class TestAnimalSimulate:
    def test_sigma_zero_boundary_is_iid(self):
        ped = synthetic_pedigree(5, 10, 1, 3)
        model = AnimalModel(relationship_matrix(ped))
        rng = derive_rng(6)
        draws = np.array([model.simulate_response(2.0, 0.0, 0.25, rng) for _ in range(20_000)])
        assert abs(draws.mean() - 2.0) < 0.02
        cov = np.cov(draws.T)
        iid = 0.25 * np.eye(model.n_individuals)
        assert np.linalg.norm(cov - iid) / np.linalg.norm(iid) < 0.05

    def test_covariance_matches_model(self):
        ped = Pedigree(
            (
                PedigreeRecord(1, None, None),
                PedigreeRecord(2, None, None),
                PedigreeRecord(3, 1, 2),
                PedigreeRecord(4, 1, 2),
                PedigreeRecord(5, 3, 4),
            )
        )
        a = relationship_matrix(ped)
        model = AnimalModel(a)
        params = AnimalParams(0.0, 1.0, 0.5)
        rng = derive_rng(8)
        draws = np.array([model.simulate_response(params.mu, params.sigma2, params.tau2, rng) for _ in range(100_000)])
        v = params.sigma2 * a.a + params.tau2 * np.eye(5)
        frob = np.linalg.norm(np.cov(draws.T) - v) / np.linalg.norm(v)
        assert frob < 0.05

    def test_negative_variance_rejected(self):
        # natural parameters are checked by AnimalParams; the model itself
        # draws at log variances, which cannot be negative
        with pytest.raises(ValueError, match="strictly positive"):
            AnimalParams(0.0, -1.0, 1.0)

    def test_deterministic_under_seed(self):
        ped = synthetic_pedigree(4, 4, 1, 9)
        model = AnimalModel(relationship_matrix(ped))
        params = AnimalParams(1.0, 1.0, 1.0)
        d1 = model.simulate_response(params.mu, params.sigma2, params.tau2, derive_rng(10))
        d2 = model.simulate_response(params.mu, params.sigma2, params.tau2, derive_rng(10))
        assert np.array_equal(d1, d2)

    @settings(max_examples=30, deadline=None)
    @given(
        phi=st.tuples(st.floats(-3, 3), st.floats(-4, 4), st.floats(-4, 4)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
    )
    def test_stack_rows_are_rotated_single_draws(self, phi, seed, n):
        model = AnimalModel(relationship_matrix(synthetic_pedigree(6, 30, 3, 5)))
        phi = np.array(phi)
        stack = model.simulate_stack([phi], [derive_rng(seed, "stack", i) for i in range(n)])
        assert stack.shape == (n, model.n_individuals)
        params = model.phi_to_params(phi)
        for i, held in enumerate(stack):
            y = model.simulate_response(params.mu, params.sigma2, params.tau2, derive_rng(seed, "stack", i))
            # simulate_stack forms Q'y without forming y: equal up to rounding
            assert rel_err(held, model.parse_data(y)) <= 1e-12

    def test_default_stack_is_the_single_draws(self):
        model = lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]]))
        theta = np.array([0.3, -1.0])
        stack = model.simulate_stack([theta], [derive_rng(4, i) for i in range(5)])
        assert all(np.array_equal(d, model.simulate(theta, derive_rng(4, i))) for i, d in enumerate(stack))


class TestLogitHeritability:
    def test_equal_variances(self):
        assert logit_heritability(AnimalParams(3.0, 1.5, 1.5)) == 0.0

    def test_e_ratio(self):
        assert logit_heritability(AnimalParams(0.0, np.e * 2.0, 2.0)) == pytest.approx(1.0)

    def test_mu_invariance(self):
        assert logit_heritability(AnimalParams(0.0, 1.0, 2.0)) == logit_heritability(
            AnimalParams(100.0, 1.0, 2.0)
        )

    def test_se_positive_on_real_fit(self):
        ped = synthetic_pedigree(10, 30, 2, 5)
        model = AnimalModel(relationship_matrix(ped))
        truth = AnimalParams(0.0, 1.0, 1.0)
        qty = model.simulate(AnimalModel.params_to_phi(truth), derive_rng(15))
        fit = fit_mle(model, qty)
        assert fit.converged
        se = float(np.sqrt(_heritability_variance(fit.observed_info[None])[0]))
        assert se > 0
        # the delta method in natural coordinates agrees at the maximizer
        params = AnimalModel.phi_to_params(fit.theta_hat)
        _, _, hessian = model.natural_eval(qty, params.mu, params.sigma2, params.tau2)
        g = np.array([0.0, 1.0 / params.sigma2, -1.0 / params.tau2])
        se_natural = float(np.sqrt(g @ np.linalg.solve(-hessian, g)))
        assert se == pytest.approx(se_natural, rel=1e-4)


def method_of_moments_start(a, y) -> AnimalParams:
    """Oracle: the method-of-moments start of one raw response y, each sum
    formed from y and A directly."""
    y = np.asarray(y, dtype=float)
    n = y.size
    mu0 = float(y.mean())
    r = y - mu0
    r_a_r = float(r @ (a.a @ r))
    var_y = max(float(r @ r) / (n - 1), 1e-12)
    floor = 1e-3 * var_y
    trace, trace_sq = float(np.trace(a.a)), float(np.trace(a.a @ a.a))
    design = np.array([[trace_sq, trace], [trace, float(n)]])
    det = design[0, 0] * design[1, 1] - design[0, 1] * design[1, 0]
    if det <= 1e-10 * max(design[0, 0] * design[1, 1], 1.0):
        s2 = t2 = var_y / 2.0
    else:
        s2, t2 = np.linalg.solve(design, np.array([r_a_r, float(r @ r)]))
    return AnimalParams(mu0, max(float(s2), floor), max(float(t2), floor))


def start_params(model, ys) -> list:
    """``AnimalModel.starts`` of raw responses, read as data sets, as natural parameters."""
    return [model.phi_to_params(phi) for phi in model.starts(np.array([model.parse_data(y) for y in ys]))]


class TestMethodOfMoments:
    def test_identity_a_falls_back(self):
        ped = Pedigree(tuple(PedigreeRecord(i + 1, None, None) for i in range(8)))
        y = derive_rng(2).standard_normal(8)
        (start,) = start_params(AnimalModel(relationship_matrix(ped)), [y])
        assert start.sigma2 == start.tau2  # even split on the degenerate system

    def test_start_is_interior(self):
        rng = derive_rng(77)
        ped = synthetic_pedigree(10, 20, 2, 3)
        model = AnimalModel(relationship_matrix(ped))
        ys = [model.simulate_response(0.0, 1.0, 1.0, rng) for _ in range(20)]
        for start in start_params(model, ys):
            assert start.sigma2 > 0 and start.tau2 > 0

    def test_recovers_truth_roughly(self):
        ped = synthetic_pedigree(30, 85, 2, 13)
        model = AnimalModel(relationship_matrix(ped))
        truth = AnimalParams(0.0, 1.0, 1.0)
        rng = derive_rng(19)
        good = 0
        reps = 60
        ys = [model.simulate_response(truth.mu, truth.sigma2, truth.tau2, rng) for _ in range(reps)]
        for start in start_params(model, ys):
            ok_s = truth.sigma2 / 3 <= start.sigma2 <= truth.sigma2 * 3
            ok_t = truth.tau2 / 3 <= start.tau2 <= truth.tau2 * 3
            good += int(ok_s and ok_t)
        assert good / reps >= 0.9

    def test_requires_three_observations(self):
        # no start for two individuals, so the fit is NaO before any step
        ped = Pedigree((PedigreeRecord(1, None, None), PedigreeRecord(2, None, None)))
        fit = fit_mle(AnimalModel(relationship_matrix(ped)), np.array([1.0, 2.0]))
        assert is_nao(fit.theta_hat) and fit.trace.steps == 0

    @settings(max_examples=30, deadline=None)
    @given(
        phi=st.tuples(st.floats(-3, 3), st.floats(-4, 4), st.floats(-4, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_start_from_rotated_response_matches_raw(self, phi, seed):
        # a stack's starts come from Q'y; the oracle forms its sums from y
        model = TestStackedStarts.MODELS[False]
        params = model.phi_to_params(np.array(phi))
        y = model.simulate_response(params.mu, params.sigma2, params.tau2, derive_rng(seed, "start"))
        raw = model.params_to_phi(method_of_moments_start(model.relationship, y))
        assert rel_err(model.starts([model.parse_data(y)])[0], raw) <= 1e-12
        stacked = model.simulate_stack([phi], [derive_rng(seed, "start")])
        assert rel_err(model.starts(stacked)[0], raw) <= 1e-12


def rotated_start(model, qty) -> np.ndarray:
    """Oracle: the method-of-moments start of one rotated response ``Q'y``,
    every sum formed row by row; NaN where it has no start."""
    a, n = model.relationship.a, qty.size
    if n < 3:
        return np.full(3, np.nan)
    mu0 = float(model.ones_t @ qty) / n
    r = qty - mu0 * model.ones_t
    r_a_r = float(model.lam @ (r * r))
    var_y = max(float(r @ r) / (n - 1), 1e-12)
    floor = 1e-3 * var_y
    trace, trace_sq = float(np.trace(a)), float(np.sum(a * a))
    design = np.array([[trace_sq, trace], [trace, float(n)]])
    det = design[0, 0] * design[1, 1] - design[0, 1] * design[1, 0]
    if det <= 1e-10 * max(design[0, 0] * design[1, 1], 1.0):
        s2 = t2 = var_y / 2.0
    else:
        s2, t2 = np.linalg.solve(design, np.array([r_a_r, float(r @ r)]))
    try:
        params = AnimalParams(mu0, max(float(s2), floor), max(float(t2), floor))
    except ValueError:
        return np.full(3, np.nan)
    return AnimalModel.params_to_phi(params)


class TestStackedStarts:
    """``AnimalModel.starts`` of a stack is the per-row rotated formula, to the bit."""

    # a random-mating pedigree, and A = I, whose moment system is degenerate
    FOUNDERS = Pedigree(tuple(PedigreeRecord(i + 1, None, None) for i in range(9)))
    MODELS = {
        False: AnimalModel(relationship_matrix(synthetic_pedigree(6, 30, 3, 5))),
        True: AnimalModel(relationship_matrix(FOUNDERS)),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        phi=st.tuples(st.floats(-3, 3), st.floats(-4, 4), st.floats(-4, 4)),
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([0, 1, 2, 17]),
        identity=st.booleans(),
        poisoned=st.booleans(),
    )
    def test_starts_equal_the_rotated_formula_bit_for_bit(self, phi, seed, m, identity, poisoned):
        model = self.MODELS[identity]
        stack = model.simulate_stack([phi], [derive_rng(seed, "starts", i) for i in range(m)])
        if poisoned and m:
            stack[m // 2] = np.nan  # a response with no start
        starts = model.starts(stack)
        assert starts.shape == (m, 3)
        for row, start in zip(stack, starts):
            expected = rotated_start(model, row)
            assert start.tobytes() == expected.tobytes() or np.isnan(start).all() and np.isnan(expected).all()
        assert np.isnan(starts).any(axis=1).sum() == int(poisoned and m > 0)

    def test_identity_design_splits_evenly(self):
        model = self.MODELS[True]
        starts = model.starts(model.simulate_stack([np.zeros(3)], [derive_rng(3, i) for i in range(4)]))
        assert np.array_equal(starts[:, 1], starts[:, 2])

    def test_too_few_individuals_have_no_start(self):
        pair = Pedigree((PedigreeRecord(1, None, None), PedigreeRecord(2, None, None)))
        model = AnimalModel(relationship_matrix(pair))
        assert np.isnan(model.starts(np.ones((3, 2)))).all()


class TestDataStacks:
    """A model's stack of simulated data sets is the stack of its single draws,
    bit for bit: each stream draws alone (the animal model's draws, against
    raw responses, are checked in ``TestAnimalSimulate``)."""

    MODELS = {
        "lan": (lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]])), np.array([0.3, -1.0])),
        "wishart": (wishart_lamn_model(LamnSpec(2, WishartCurvature(4.0, np.eye(2)))), np.array([0.3, -1.0])),
        "ar1": (Ar1Model(12, x0=1.5), np.array([1.1])),
        "ar1_random_x0": (Ar1Model(5, random_x0=True), np.array([-0.7])),
        "iid_normal": (NormalLocationIid(2, 4), np.array([0.3, -1.0])),
        "iid_exponential": (ExponentialRateIid(6), np.array([1.5])),
    }

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(MODELS)), n=st.sampled_from([0, 1, 9]), seed=st.integers(0, 2**32 - 1))
    def test_single_draws_are_the_rows_of_simulate_stack(self, name, n, seed):
        model, theta = self.MODELS[name]
        stack = model.simulate_stack([theta], [derive_rng(seed, "stack", i) for i in range(n)])
        singles = [model.simulate(theta, derive_rng(seed, "stack", i)) for i in range(n)]
        assert np.array_equal(stack, np.array(singles).reshape(stack.shape))
        assert model.stacked_objective(stack).n_rows == n


class TestIidHelpers:
    def test_normal_location_finite_differences(self):
        model = NormalLocationIid(2, 7)
        rng = derive_rng(3)
        data = model.simulate(np.array([0.5, -0.5]), rng)
        theta = np.array([0.2, 0.1])
        q = model.objective(data)
        ev = q(theta)
        value = lambda t: q(t).value
        assert rel_err(ev.gradient, fd_gradient(value, theta)) < 1e-6
        assert rel_err(ev.hessian, fd_hessian(value, theta)) < 1e-4

    def test_exponential_rate_finite_differences(self):
        model = ExponentialRateIid(9)
        data = model.simulate(np.array([2.0]), derive_rng(4))
        theta = np.array([1.5])
        q = model.objective(data)
        ev = q(theta)
        value = lambda t: q(t).value
        assert rel_err(ev.gradient, fd_gradient(value, theta)) < 1e-6
        assert rel_err(ev.hessian, fd_hessian(value, theta)) < 1e-4

    def test_exponential_domain_guard(self):
        model = ExponentialRateIid(5)
        data = model.simulate(np.array([1.0]), derive_rng(5))
        assert is_nao(model.objective(data)(np.array([-0.5])))

    def test_exponential_centre_without_a_draw_gives_nan_rows(self):
        # 1/theta is negative, infinite (also 1/1e-320) or NaN: those centres
        # have no draw; the others draw as they do alone
        model, centres = ExponentialRateIid(4), [[2.0], [-1.0], [0.0], [1e-320], [np.nan], [0.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = model.simulate_stack(centres, [derive_rng(6, i) for i in range(12)])
            ev = model.stacked_objective(stack)(np.arange(12), np.repeat([[1.0]], 12, axis=0))
        assert np.isnan(stack[2:10]).all() and not ev.ok[2:10].any()
        for c, i in [(0, 0), (0, 1), (5, 10), (5, 11)]:
            assert np.array_equal(stack[i], model.simulate(np.array(centres[c]), derive_rng(6, i)))

    @pytest.mark.parametrize("kind", ["normal", "exponential"])
    def test_overflowing_rows_are_nao_without_a_warning(self, kind):
        # the residuals' squares, or theta times the data, overflow
        if kind == "normal":
            model, data, theta = NormalLocationIid(1, 3), np.array([[1e200], [-1e200], [3e200]]), [0.0]
        else:
            model, data, theta = ExponentialRateIid(3), np.array([1e300, 2e300, 3e300]), [1e-320]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_nao(model.objective(data)(np.array(theta)))


class TestCsvFormats:
    def test_vector_round_trip(self, tmp_path):
        from quadlik.models import save_vector_csv

        path = tmp_path / "v.csv"
        values = np.array([1.5, -2.25, 3.125])
        save_vector_csv(str(path), values)
        assert np.array_equal(load_vector_csv(str(path)), values)

    def test_vector_header_skipped(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("y\n1.0\n2.0\n")
        assert np.array_equal(load_vector_csv(str(path)), [1.0, 2.0])

    def test_vector_error_carries_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0\noops\n")
        with pytest.raises(DataFormatError) as err:
            load_vector_csv(str(path))
        assert err.value.line == 2

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_vector_rejects_non_finite_values(self, tmp_path, text):
        # an AR(1) path entry, like any data value, must be finite
        path = tmp_path / "v.csv"
        path.write_text(f"y\n1.0\n{text}\n2.0\n")
        with pytest.raises(DataFormatError, match="expected a finite number") as err:
            load_vector_csv(str(path))
        assert err.value.line == 3

    def test_pedigree_round_trip(self, tmp_path):
        from quadlik.models import save_pedigree_csv

        ped = synthetic_pedigree(4, 6, 2, 3)
        path = tmp_path / "ped.csv"
        save_pedigree_csv(str(path), ped)
        loaded = load_pedigree_csv(str(path))
        assert loaded.records == ped.records

    def test_pedigree_bad_header(self, tmp_path):
        path = tmp_path / "ped.csv"
        path.write_text("a,b,c\n1,,\n")
        with pytest.raises(DataFormatError) as err:
            load_pedigree_csv(str(path))
        assert err.value.line == 1

    def test_pedigree_forward_reference_line(self, tmp_path):
        path = tmp_path / "ped.csv"
        path.write_text("id,sire,dam\n1,,\n2,3,\n3,,\n")
        with pytest.raises(DataFormatError) as err:
            load_pedigree_csv(str(path))
        assert err.value.line == 3


class TestParseData:
    """Each model reads its data set from the flat values of a data file."""

    MODELS = {
        "lan": (lambda: lan_normal_location(np.eye(2)), 2, "expected 2 values, got 3"),
        "iid_normal": (lambda: NormalLocationIid(2, 3), 6, "expected 6 values, got 7"),
        "iid_exponential": (lambda: ExponentialRateIid(4), 4, "expected 4 values, got 5"),
        "ar1": (lambda: Ar1Model(3), 4, "expected 4 values for the AR(1) path, got 5"),
        "wishart": (
            lambda: wishart_lamn_model(LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0))),
            6,
            "expected 6 values (z then k row-major), got 7",
        ),
        "animal": (
            lambda: AnimalModel(relationship_matrix(synthetic_pedigree(3, 2, 1, 1))),
            5,
            "expected 5 values, got 6",
        ),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_fitting_length_parses_and_others_name_the_count(self, name):
        make, size, message = self.MODELS[name]
        model = make()
        # the Wishart data set is z, then an SPD k row by row
        flat = np.array([0.3, -0.2, 2.0, 0.5, 0.5, 1.0]) if name == "wishart" else np.linspace(1.0, 2.0, size)
        data = model.parse_data(flat)
        assert not is_nao(model.objective(data)(model.starts(np.array([data]))[0]))
        with pytest.raises(DataFormatError) as err:
            model.parse_data(np.ones(size + 1))
        assert err.value.line == 1 and str(err.value) == f"line 1: {message}"

    def test_checks_and_returns_the_stack_row(self):
        # Wishart: k is tested positive definite, then symmetrized into the row
        wishart = self.MODELS["wishart"][0]()
        with pytest.raises(DataFormatError, match="^line 1: k .values 3 to 6. must be positive definite$"):
            wishart.parse_data(np.array([0.3, -0.2, 1.0, 0.0, 0.0, -1.0]))
        row = wishart.parse_data(np.array([0.3, -0.2, 2.0, 0.5, 0.5 + 1e-12, 1.0]))
        assert row.shape == (6,) and row[3] == row[4]
        # animal: the response is rotated to Q'y once, when it is read
        animal = self.MODELS["animal"][0]()
        y = np.linspace(1.0, 2.0, 5)
        assert np.array_equal(animal.parse_data(y), animal.q.T @ y)


class TestWishartModelWrapper:
    def test_eval_matches_draw_loglik(self):
        from quadlik import LamnSpec, WishartCurvature, sample_lamn, wishart_lamn_model

        spec = LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0))
        model = wishart_lamn_model(spec)
        # a data set is the sampler's draw as a row, z then k row-major
        draw = sample_lamn(spec, np.zeros(2), derive_rng(31))
        row = model.simulate(np.zeros(2), derive_rng(31))
        assert np.array_equal(row, draw)
        z, k, d = draw[:2], draw[2:].reshape(2, 2), np.array([0.3, -0.7])
        assert model.objective(row)(d).value == pytest.approx(z @ d - 0.5 * d @ k @ d)


def quadratic_row(z, k, theta):
    """The quadratic kernel at one point, term by term."""
    kth = (k * theta[None, :]).sum(axis=-1)
    return 0.0 + (z * theta).sum(axis=-1) - 0.5 * (theta * kth).sum(axis=-1), z - kth, -k


def animal_row(model, qty, phi):
    """The log-scale animal likelihood of one rotated response ``Q'y`` at a
    point of the domain."""
    scale = np.exp(phi * np.array([0.0, 1.0, 1.0]))
    value, g, h = model.natural_eval(qty, phi[0], scale[1], scale[2])
    grad = g * scale
    hess = h * (scale[:, None] * scale[None, :])
    hess += np.diag([0.0, 1.0, 1.0]) * grad[None, :]
    return value, grad, hess


def per_point_loglik(model, data, theta):
    """Oracle: each model's likelihood formula for one data set at one point,
    in scalar and 1-D arithmetic; None where it is NaO (outside the domain,
    wrong length or a non-finite evaluation)."""
    p = model.dim_param
    if theta.shape != (p,) or not ((model.domain.lower < theta) & (theta < model.domain.upper)).all():
        return None
    if isinstance(model, LanNormalLocation):
        row = quadratic_row(np.asarray(data, dtype=float), model.k, theta)
    elif isinstance(model, WishartLamnModel):
        row = quadratic_row(data[:p], data[p:].reshape(p, p), theta)
    elif isinstance(model, Ar1Model):
        lag = data[:-1]
        resid = data[1:] - float(theta[0]) * lag
        row = -0.5 * float(resid @ resid), np.array([float(lag @ resid)]), np.array([[-float(lag @ lag)]])
    elif isinstance(model, AnimalModel):
        row = animal_row(model, data, theta)
    elif isinstance(model, NormalLocationIid):
        resid = np.asarray(data, dtype=float).reshape(model.n, model.p) - theta
        row = -0.5 * float(np.sum(resid * resid)), resid.sum(axis=0), -model.n * np.eye(model.p)
    else:
        total = float(np.asarray(data, dtype=float).sum())
        # the rate is squared as th * th, one correctly rounded multiply as in
        # numpy (Python's th**2 calls libm pow, which can differ in the last bit);
        # Python's * overflows to inf, but n / (th * th) raises where the square
        # underflows to 0 (a rate below about 1.5e-154): there the formula is
        # taken in float64
        for th in (float(theta[0]), np.float64(theta[0])):
            try:
                row = model.n * np.log(th) - th * total, np.array([model.n / th - total]), np.array([[-model.n / (th * th)]])
                break
            except ZeroDivisionError:
                continue
    value, gradient, hessian = row
    packed = np.concatenate([[value], gradient, np.ravel(hessian)])
    return packed if np.isfinite(packed).all() else None


KERNEL_CASES = {
    "lan": (lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]])), np.array([0.3, -0.2])),
    "wishart": (wishart_lamn_model(LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0))), np.array([0.4, 0.1])),
    "ar1": (Ar1Model(12, x0=1.0), np.array([0.5])),
    "animal": (
        AnimalModel(relationship_matrix(synthetic_pedigree(6, 9, 2, 17))),
        AnimalModel.params_to_phi(AnimalParams(0.5, 1.2, 0.8)),
    ),
    # 6000 values a data set: the stacked objective evaluates it two rows at a time
    "iid_normal": (NormalLocationIid(2, 3000), np.array([0.1, -0.4])),
    "iid_exponential": (ExponentialRateIid(6), np.array([1.3])),
}


@st.composite
def kernel_points(draw, psi):
    """A parameter near psi, with some entries far out, non-finite, past the
    animal model's log-variance overflow, or on or past its open bound."""
    entry = st.one_of(
        st.floats(-2.0, 2.0),
        st.floats(-1e300, 1e300),
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-320, 356.0, 700.0, -700.0, 800.0]),
    )
    return np.array([psi[j] + draw(st.floats(-2.0, 2.0)) if draw(st.booleans()) else draw(entry) for j in range(psi.size)])


class TestOneLikelihoodKernel:
    """Each model's stacked rows and ``objective(data)`` equal, bit for bit, its
    likelihood evaluated one data set at one point, and are NaO exactly where
    that is."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
    def test_rows_equal_the_per_point_formula(self, kind, data, seed, m):
        model, psi = KERNEL_CASES[kind]
        datas = [model.simulate(psi, derive_rng(seed, "kernel", i)) for i in range(m)]
        thetas = np.array([data.draw(kernel_points(psi)) for _ in range(m)])
        p = psi.size
        with np.errstate(all="ignore"):
            ev = model.stacked_objective(datas)(np.arange(m), thetas)
            for j in range(m):
                expected = per_point_loglik(model, datas[j], thetas[j])
                single = model.objective(datas[j])(thetas[j])
                if expected is None:
                    assert not ev.ok[j] and is_nao(single)
                    continue
                assert ev.ok[j] and ev.packed[j].tobytes() == expected.tobytes()
                hessian = expected[p + 1 :].reshape(p, p)
                assert np.float64(single.value).tobytes() == expected[:1].tobytes()
                assert single.gradient.tobytes() == expected[1 : p + 1].tobytes()
                assert single.hessian.tobytes() == (0.5 * hessian + 0.5 * hessian.T).tobytes()
