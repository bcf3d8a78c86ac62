import warnings

import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlik import (
    AnimalModel,
    AnimalParams,
    Ar1Data,
    Ar1Model,
    ExponentialRateIid,
    LamnSpec,
    NormalLocationIid,
    Pedigree,
    PedigreeRecord,
    WishartCurvature,
    animal_loglik,
    animal_simulate,
    ar1_expected_info,
    ar1_loglik,
    ar1_simulate,
    ar1_simulate_paths,
    derive_rng,
    fit_mle,
    is_nao,
    lan_normal_location,
    load_pedigree_csv,
    load_vector_csv,
    logit_heritability,
    logit_heritability_se,
    make_wald_pivot,
    method_of_moments_start,
    parametric_bootstrap,
    quadratic_mle,
    relationship_matrix,
    synthetic_pedigree,
    wishart_lamn_model,
)
from quadlik.cli import _heritability_pivot
from quadlik.core import QuadraticForm, spd_factor
from quadlik.models import DataFormatError, PedigreeError, RotatedResponse, _AnimalKernel


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
        data = ar1_simulate(0.0, 10_000, 0.0, derive_rng(5))
        inner = data.x[1:]
        assert abs(inner.var(ddof=1) - 1.0) < 4 * np.sqrt(2.0 / 10_000)

    def test_degenerate_noise_constant_path(self):
        data = ar1_simulate(1.0, 10, 2.5, _ZeroNoise())
        assert np.all(data.x == 2.5)

    def test_deterministic_under_seed(self):
        a = ar1_simulate(0.5, 50, 1.0, derive_rng(9, 1))
        b = ar1_simulate(0.5, 50, 1.0, derive_rng(9, 1))
        assert np.array_equal(a.x, b.x)

    def test_paths_match_scalar_path_shape(self):
        paths = ar1_simulate_paths(0.5, 20, 1.0, 100, derive_rng(2))
        assert paths.shape == (100, 21)
        assert np.all(paths[:, 0] == 1.0)


class TestAr1Loglik:
    def test_all_zero_path(self):
        ev = ar1_loglik(Ar1Data(np.zeros(6)), 0.3)
        assert ev.value == 0.0 and ev.gradient[0] == 0.0 and ev.hessian[0, 0] == 0.0

    def test_perfect_fit(self):
        ev = ar1_loglik(Ar1Data(np.array([1.0, 1.0])), 1.0)
        assert ev.value == 0.0
        assert ev.gradient[0] == 0.0
        assert ev.hessian[0, 0] == -1.0

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            data = ar1_simulate(0.6, 30, 1.0, rng)
            theta = rng.uniform(-1, 1)
            ev = ar1_loglik(data, theta)
            value = lambda t: ar1_loglik(data, float(t[0])).value
            assert rel_err(ev.gradient, fd_gradient(value, np.array([theta]))) < 1e-6
            assert rel_err(ev.hessian, fd_hessian(value, np.array([theta]))) < 1e-4

    def test_hessian_free_of_theta(self):
        data = ar1_simulate(0.4, 25, 1.0, derive_rng(8))
        h = [ar1_loglik(data, t).hessian[0, 0] for t in (-0.9, 0.0, 0.7, 2.0)]
        assert len(set(h)) == 1


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
        a = relationship_matrix(ped)
        rng = derive_rng(seed, 1)
        params = AnimalParams(0.5, 1.2, 0.8)
        y = animal_simulate(a, params, rng)
        return a, y, params

    def test_identity_a_reduces_to_iid(self):
        ped = Pedigree(tuple(PedigreeRecord(i + 1, None, None) for i in range(10)))
        a = relationship_matrix(ped)
        y = animal_simulate(a, AnimalParams(1.0, 0.6, 0.4), derive_rng(4))
        params = AnimalParams(1.0, 0.5, 0.5)
        ev = animal_loglik(a, y, params)
        # information in the variance pair is singular: only the sum is identified
        info_vv = -ev.hessian[1:, 1:]
        assert spd_factor(info_vv) is None
        # mu maximizer is the sample mean: gradient in mu vanishes there
        ev_at_mean = animal_loglik(a, y, AnimalParams(float(y.mean()), 0.5, 0.5))
        assert abs(ev_at_mean.gradient[0]) < 1e-10

    def test_finite_difference_oracle_natural_coords(self):
        rng = np.random.default_rng(3)
        for seed in (10, 11, 12):
            a, y, params = self._instance(seed)

            def value(v):
                return animal_loglik(a, y, AnimalParams(v[0], v[1], v[2])).value

            point = np.array([params.mu, params.sigma2, params.tau2])
            ev = animal_loglik(a, y, params)
            assert rel_err(ev.gradient, fd_gradient(value, point)) < 1e-6
            assert rel_err(ev.hessian, fd_hessian(value, point, h=1e-4)) < 1e-4

    def test_finite_difference_oracle_log_coords(self):
        a, y, params = self._instance(21)
        model = AnimalModel(a)
        phi = AnimalModel.params_to_phi(params)
        ev = model.eval(y, phi)
        value = lambda v: model.eval(y, v).value
        assert rel_err(ev.gradient, fd_gradient(value, phi)) < 1e-6
        assert rel_err(ev.hessian, fd_hessian(value, phi, h=1e-4)) < 1e-4

    def test_permutation_invariance(self):
        a, y, params = self._instance(31)
        rng = np.random.default_rng(0)
        perm = rng.permutation(a.size)
        from quadlik import RelationshipMatrix

        a_perm = RelationshipMatrix(a.a[np.ix_(perm, perm)])
        ev = animal_loglik(a, y, params)
        ev_perm = animal_loglik(a_perm, y[perm], params)
        assert ev_perm.value == pytest.approx(ev.value, rel=1e-10)
        assert np.allclose(ev_perm.gradient, ev.gradient, rtol=1e-8, atol=1e-10)

    def test_singular_covariance_gives_nao(self):
        a, y, _ = self._instance(41)
        tiny = AnimalParams(0.0, 1e-320, 1e-320)
        assert is_nao(animal_loglik(a, y, tiny))


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
        model = self.MODEL
        y = model.simulate(self.TRUTH, derive_rng(seed))
        phi = np.array(phi)
        evals = [model.objective(y)(phi), model.eval(y, phi), model.eval(model.rotate(y), phi)]
        for ev in evals[1:]:
            assert ev.value == evals[0].value
            assert np.array_equal(ev.gradient, evals[0].gradient)
            assert np.array_equal(ev.hessian, evals[0].hessian)
        # the natural-scale entry point rotates through the same kernel
        s2, t2 = float(np.exp(phi[1])), float(np.exp(phi[2]))
        natural = animal_loglik(model.relationship, y, AnimalParams(phi[0], s2, t2))
        assert natural.value == pytest.approx(evals[0].value, rel=1e-12, abs=1e-12)
        chain = natural.gradient * np.array([1.0, s2, t2])
        assert np.allclose(chain, evals[0].gradient, rtol=1e-10, atol=1e-12)

    def test_one_rotation_per_objective(self, monkeypatch):
        calls = []
        original = _AnimalKernel.rotate

        def counting(kernel, y):
            calls.append(1)
            return original(kernel, y)

        monkeypatch.setattr(_AnimalKernel, "rotate", counting)
        model = self.MODEL
        y = model.simulate(self.TRUTH, derive_rng(4))
        q = model.objective(y)
        assert len(calls) == 1
        for i in range(20):
            q(self.TRUTH + 0.05 * i)
        assert len(calls) == 1
        model.objective(y)
        assert len(calls) == 2
        fit = fit_mle(model, y)
        assert fit.converged and fit.trace.steps > 0
        assert len(calls) == 3
        # a raw response handed to eval is rotated on each call; a rotated one never
        model.eval(y, self.TRUTH)
        assert len(calls) == 4
        rotated = model.rotate(y)
        assert isinstance(rotated, RotatedResponse) and model.rotate(rotated) is rotated
        model.eval(rotated, self.TRUTH)
        model.objective(rotated)(self.TRUTH)
        assert len(calls) == 5

    @pytest.mark.parametrize("pivot_factory", [_heritability_pivot, make_wald_pivot], ids=["heritability", "wald"])
    def test_one_rotation_per_bootstrap_replicate(self, monkeypatch, pivot_factory):
        # each replicate is drawn already rotated, as one row of the level's
        # one Q'Y product, and its start, refit and pivot all share that row
        calls = {"rotate": 0, "simulate_rotated": 0}
        for name, original in [(name, getattr(_AnimalKernel, name)) for name in calls]:

            def counting(kernel, *args, name=name, original=original):
                calls[name] += 1
                return original(kernel, *args)

            monkeypatch.setattr(_AnimalKernel, name, counting)
        model, B = self.MODEL, 50
        samples = parametric_bootstrap(model, self.TRUTH, B, pivot_factory(model), model.start, seed=8)
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
            assert is_nao(model.eval(y, np.array(phi)))
            ev = model.stacked_objective([y, y])(np.array([0, 1]), np.array([phi, self.TRUTH]))
        assert ev.ok.tolist() == [False, True]


class TestOneEigendecomposition:
    def test_matrix_shares_one_eigh(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(1)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        a = relationship_matrix(synthetic_pedigree(5, 6, 2, 23))
        params = AnimalParams(0.3, 1.1, 0.9)
        y = animal_simulate(a, params, derive_rng(1))
        animal_simulate(a, (0.0, 0.0, 1.0), derive_rng(2))
        animal_loglik(a, y, params)
        animal_loglik(a, y, AnimalParams(0.0, 2.0, 0.5))
        model = AnimalModel(a)
        fit_mle(model, y)
        AnimalModel(a).simulate(model.params_to_phi(params), derive_rng(3))
        assert len(calls) == 1
        # a second matrix, even an equal one, has its own decomposition
        animal_loglik(relationship_matrix(synthetic_pedigree(5, 6, 2, 23)), y, params)
        assert len(calls) == 2


class TestAnimalSimulate:
    def test_sigma_zero_boundary_is_iid(self):
        ped = synthetic_pedigree(5, 10, 1, 3)
        a = relationship_matrix(ped)
        rng = derive_rng(6)
        draws = np.array([animal_simulate(a, (2.0, 0.0, 0.25), rng) for _ in range(20_000)])
        assert abs(draws.mean() - 2.0) < 0.02
        cov = np.cov(draws.T)
        assert np.linalg.norm(cov - 0.25 * np.eye(a.size)) / np.linalg.norm(0.25 * np.eye(a.size)) < 0.05

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
        params = AnimalParams(0.0, 1.0, 0.5)
        rng = derive_rng(8)
        draws = np.array([animal_simulate(a, params, rng) for _ in range(100_000)])
        v = params.sigma2 * a.a + params.tau2 * np.eye(5)
        frob = np.linalg.norm(np.cov(draws.T) - v) / np.linalg.norm(v)
        assert frob < 0.05

    def test_deterministic_under_seed(self):
        ped = synthetic_pedigree(4, 4, 1, 9)
        a = relationship_matrix(ped)
        params = AnimalParams(1.0, 1.0, 1.0)
        d1 = animal_simulate(a, params, derive_rng(10))
        d2 = animal_simulate(a, params, derive_rng(10))
        assert np.array_equal(d1, d2)

    def test_negative_variance_rejected(self):
        ped = synthetic_pedigree(4, 4, 1, 9)
        a = relationship_matrix(ped)
        with pytest.raises(ValueError):
            animal_simulate(a, (0.0, -1.0, 1.0), derive_rng(1))

    @settings(max_examples=30, deadline=None)
    @given(
        phi=st.tuples(st.floats(-3, 3), st.floats(-4, 4), st.floats(-4, 4)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
    )
    def test_stack_rows_are_rotated_single_draws(self, phi, seed, n):
        model = AnimalModel(relationship_matrix(synthetic_pedigree(6, 30, 3, 5)))
        phi = np.array(phi)
        stack = model.simulate_stack(phi, [derive_rng(seed, "stack", i) for i in range(n)])
        assert len(stack) == n
        for i, held in enumerate(stack):
            assert isinstance(held, RotatedResponse)
            single = model.rotate(model.simulate(phi, derive_rng(seed, "stack", i))).qty
            assert rel_err(held.qty, single) <= 1e-12

    def test_default_stack_is_the_single_draws(self):
        model = lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]]))
        theta = np.array([0.3, -1.0])
        stack = model.simulate_stack(theta, [derive_rng(4, i) for i in range(5)])
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
        a = relationship_matrix(ped)
        model = AnimalModel(a)
        truth = AnimalParams(0.0, 1.0, 1.0)
        y = model.simulate(AnimalModel.params_to_phi(truth), derive_rng(15))
        fit = fit_mle(model, y)
        assert fit.converged
        params = AnimalModel.phi_to_params(fit.theta_hat)
        info_natural = -animal_loglik(a, y, params).hessian
        se = logit_heritability_se(params, info_natural)
        assert se > 0
        # log-coordinate contrast route agrees at the maximizer
        contrast = np.array([0.0, 1.0, -1.0])
        se_log = float(np.sqrt(contrast @ np.linalg.solve(fit.observed_info, contrast)))
        assert se == pytest.approx(se_log, rel=1e-4)


class TestMethodOfMoments:
    def test_identity_a_falls_back(self):
        ped = Pedigree(tuple(PedigreeRecord(i + 1, None, None) for i in range(8)))
        a = relationship_matrix(ped)
        y = derive_rng(2).standard_normal(8)
        start = method_of_moments_start(a, y)
        assert start.sigma2 == start.tau2  # even split on the degenerate system

    def test_start_is_interior(self):
        rng = derive_rng(77)
        ped = synthetic_pedigree(10, 20, 2, 3)
        a = relationship_matrix(ped)
        for _ in range(20):
            y = animal_simulate(a, AnimalParams(0.0, 1.0, 1.0), rng)
            start = method_of_moments_start(a, y)
            assert start.sigma2 > 0 and start.tau2 > 0

    def test_recovers_truth_roughly(self):
        ped = synthetic_pedigree(30, 85, 2, 13)
        a = relationship_matrix(ped)
        truth = AnimalParams(0.0, 1.0, 1.0)
        rng = derive_rng(19)
        good = 0
        reps = 60
        for _ in range(reps):
            y = animal_simulate(a, truth, rng)
            start = method_of_moments_start(a, y)
            ok_s = truth.sigma2 / 3 <= start.sigma2 <= truth.sigma2 * 3
            ok_t = truth.tau2 / 3 <= start.tau2 <= truth.tau2 * 3
            good += int(ok_s and ok_t)
        assert good / reps >= 0.9

    def test_pedigree_constants_cached(self):
        a = relationship_matrix(synthetic_pedigree(10, 20, 2, 3))
        y = animal_simulate(a, AnimalParams(0.0, 1.0, 1.0), derive_rng(5))
        assert "trace" not in vars(a) and "trace_sq" not in vars(a)
        first = method_of_moments_start(a, y)
        assert vars(a)["trace"] == float(np.trace(a.a))
        assert vars(a)["trace_sq"] == float(np.sum(a.a * a.a))
        second = method_of_moments_start(a, y)
        assert (first.mu, first.sigma2, first.tau2) == (second.mu, second.sigma2, second.tau2)

    def test_requires_three_observations(self):
        ped = Pedigree((PedigreeRecord(1, None, None), PedigreeRecord(2, None, None)))
        a = relationship_matrix(ped)
        with pytest.raises(ValueError):
            method_of_moments_start(a, np.array([1.0, 2.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        phi=st.tuples(st.floats(-3, 3), st.floats(-4, 4), st.floats(-4, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_start_from_rotated_response_matches_raw(self, phi, seed):
        # the start takes what simulate_stack returns as well as a raw response
        model = AnimalModel(relationship_matrix(synthetic_pedigree(6, 30, 3, 5)))
        y = model.simulate(np.array(phi), derive_rng(seed, "start"))
        raw, rotated = model.start(y), model.start(model.rotate(y))
        assert rel_err(rotated, raw) <= 1e-12
        (stacked,) = model.simulate_stack(np.array(phi), [derive_rng(seed, "start")])
        assert rel_err(model.start(stacked), raw) <= 1e-12


class TestIidHelpers:
    def test_normal_location_finite_differences(self):
        model = NormalLocationIid(2, 7)
        rng = derive_rng(3)
        data = model.simulate(np.array([0.5, -0.5]), rng)
        theta = np.array([0.2, 0.1])
        ev = model.eval(data, theta)
        value = lambda t: model.eval(data, t).value
        assert rel_err(ev.gradient, fd_gradient(value, theta)) < 1e-6
        assert rel_err(ev.hessian, fd_hessian(value, theta)) < 1e-4

    def test_exponential_rate_finite_differences(self):
        model = ExponentialRateIid(9)
        data = model.simulate(np.array([2.0]), derive_rng(4))
        theta = np.array([1.5])
        ev = model.eval(data, theta)
        value = lambda t: model.eval(data, t).value
        assert rel_err(ev.gradient, fd_gradient(value, theta)) < 1e-6
        assert rel_err(ev.hessian, fd_hessian(value, theta)) < 1e-4

    def test_exponential_domain_guard(self):
        model = ExponentialRateIid(5)
        data = model.simulate(np.array([1.0]), derive_rng(5))
        assert is_nao(model.objective(data)(np.array([-0.5])))


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
        assert not is_nao(model.objective(data)(model.start(data)))
        with pytest.raises(DataFormatError) as err:
            model.parse_data(np.ones(size + 1))
        assert err.value.line == 1 and str(err.value) == f"line 1: {message}"


class TestWishartModelWrapper:
    def test_eval_matches_draw_loglik(self):
        from quadlik import LamnSpec, WishartCurvature, lamn_loglik, wishart_lamn_model

        spec = LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0))
        model = wishart_lamn_model(spec)
        draw = model.simulate(np.zeros(2), derive_rng(31))
        theta = np.array([0.3, -0.7])
        assert model.eval(draw, theta).value == pytest.approx(lamn_loglik(draw, theta))
