import numpy as np
import pytest
from conftest import random_spd, rel_err
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import chi2 as scipy_chi2

from quadlik import (
    ExponentialRateIid,
    NaO,
    chisq_upper_quantile,
    chisq_upper_tail,
    confidence_region,
    fit_mle,
    is_nao,
    lan_normal_location,
    restricted_coverage_bound,
    standardized_estimator,
    symmetric_sqrt,
    wald_pivot,
)
from quadlik.core import LikModel, OpenBox, spd_factor
from quadlik.inference import MleResult
from quadlik.newton import NewtonTrace, safeguarded_maximize


def chisq_tail_by_quadrature(p, x):
    """Independent oracle: integrate the chi-square density numerically."""
    from math import exp, lgamma, log

    def density(t):
        return exp((p / 2.0 - 1.0) * log(t) - t / 2.0 - (p / 2.0) * log(2.0) - lgamma(p / 2.0))

    value, _ = integrate.quad(density, x, np.inf, limit=200)
    return value


def sqrt_alone(m):
    """The symmetric root of one matrix: the pivot test, then ``eigh``."""
    if spd_factor(m) is None:
        return NaO
    # halves first, so entries near the float maximum do not overflow
    w, v = np.linalg.eigh(0.5 * m + 0.5 * m.T)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return 0.5 * root + 0.5 * root.T


# moderate, near the float maximum (either sign), and NaN entries
ENTRY = st.one_of(
    st.floats(-10, 10),
    st.floats(1e306, 1.7e308),
    st.floats(-1.7e308, -1e306),
    st.just(float("nan")),
)


@st.composite
def matrix_stacks(draw):
    """1-6 symmetric matrices of one dimension 1-3: SPD (some near the float
    maximum), indefinite, exactly singular, or of arbitrary entries."""
    p, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    mats = []
    for _ in range(m):
        g = np.array(draw(st.lists(st.floats(-10, 10), min_size=p * p, max_size=p * p))).reshape(p, p)
        a = (g @ g.T + np.eye(p)) * draw(st.sampled_from([1.0, 1e-3, 1e305]))
        kind = draw(st.sampled_from(["spd", "indefinite", "singular", "entries"]))
        if kind == "indefinite":
            a[-1, -1] = -abs(a[-1, -1]) - 1.0
        elif kind == "singular":
            k = draw(st.integers(0, p - 1))
            a[k, :] = a[:, k] = 0.0
        elif kind == "entries":
            entries = draw(st.lists(ENTRY, min_size=p * (p + 1) // 2, max_size=p * (p + 1) // 2))
            a[np.tril_indices(p)] = entries
            a.T[np.tril_indices(p)] = entries
        mats.append(a)
    return np.array(mats)


class TestSymmetricSqrt:
    def test_identity(self):
        assert np.allclose(symmetric_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(symmetric_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_indefinite_gives_nao(self):
        assert is_nao(symmetric_sqrt(np.diag([1.0, -1.0])))

    def test_nao_propagates(self):
        assert is_nao(symmetric_sqrt(NaO))

    def test_squares_back_on_random_spd(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            p = int(rng.integers(1, 6))
            m = random_spd(rng, p)
            root = symmetric_sqrt(m)
            assert not is_nao(root)
            assert np.array_equal(root, root.T)  # exact symmetry
            assert rel_err(root @ root, m) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(stack=matrix_stacks())
    # entries past about 9e307, whose sum overflows: the root is 1.2247e154 I
    @example(stack=np.diag([1.5e308, 1.5e308])[None])
    def test_stack_rows_equal_single_calls_bit_for_bit(self, stack):
        # a root near the float maximum overflows, as it does alone
        with np.errstate(all="ignore"):
            roots = symmetric_sqrt(stack)
            assert roots.shape == stack.shape
            for m, root in zip(stack, roots):
                alone = symmetric_sqrt(m)
                if is_nao(alone):
                    assert is_nao(sqrt_alone(m)) and np.isnan(root).all()
                else:
                    assert root.tobytes() == alone.tobytes() == sqrt_alone(m).tobytes()


class TestWaldPivot:
    def test_zero_at_center(self):
        assert wald_pivot([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0

    def test_direct_value(self):
        assert wald_pivot([1.0, 0.0], [0.0, 0.0], np.diag([2.0, 4.0])) == pytest.approx(2.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.standard_normal(3)
            h = random_spd(rng, 3)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            base = wald_pivot(d, np.zeros(3), h)
            rotated = wald_pivot(q @ d, np.zeros(3), q @ h @ q.T)
            assert rotated == pytest.approx(base, rel=1e-12)

    def test_nao_propagates(self):
        assert is_nao(wald_pivot(NaO, [0.0], np.eye(1)))
        assert is_nao(wald_pivot([0.0], NaO, np.eye(1)))


class TestChisqQuantile:
    def test_known_values(self):
        assert chisq_upper_quantile(1, 0.05) == pytest.approx(3.8415, abs=1e-3)
        assert chisq_upper_quantile(2, 0.05) == pytest.approx(-2.0 * np.log(0.05), abs=1e-3)
        assert chisq_upper_quantile(2, 0.5) == pytest.approx(2.0 * np.log(2.0), abs=1e-6)

    def test_against_quadrature_oracle(self):
        for p in (1, 2, 3, 5, 10):
            for alpha in (0.01, 0.05, 0.5, 0.9):
                kappa = chisq_upper_quantile(p, alpha)
                assert chisq_tail_by_quadrature(p, kappa) == pytest.approx(alpha, abs=1e-8)

    def test_round_trip(self):
        for p in (1, 2, 4, 7):
            for alpha in (0.001, 0.05, 0.25, 0.95):
                kappa = chisq_upper_quantile(p, alpha)
                assert abs(chisq_upper_tail(p, kappa) - alpha) < 1e-7

    def test_tail_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = int(rng.integers(1, 12))
            x = float(rng.uniform(0.01, 40.0))
            assert chisq_upper_tail(p, x) == pytest.approx(scipy_chi2.sf(x, p), rel=1e-10, abs=1e-12)

    def test_monotone_in_alpha_and_p(self):
        alphas = [0.2, 0.1, 0.05, 0.01]
        values = [chisq_upper_quantile(3, a) for a in alphas]
        assert all(b > a for a, b in zip(values, values[1:]))
        dims = [1, 2, 3, 6, 10]
        values = [chisq_upper_quantile(p, 0.05) for p in dims]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            chisq_upper_quantile(0, 0.05)
        with pytest.raises(ValueError):
            chisq_upper_quantile(2, 0.0)


class TestConfidenceRegion:
    def _fit(self, theta_hat, info):
        trace = NewtonTrace(0, True, 0.0)
        return MleResult(np.asarray(theta_hat, dtype=float), np.asarray(info, dtype=float), trace)

    def test_membership_matches_pivot_exactly(self):
        rng = np.random.default_rng(8)
        fit = self._fit(rng.standard_normal(2), random_spd(rng, 2))
        region = confidence_region(fit, 0.05)
        for _ in range(200):
            theta = fit.theta_hat + rng.standard_normal(2)
            inside = region.contains(theta)
            pivot = wald_pivot(fit.theta_hat, theta, region.shape)
            assert inside == (pivot < region.radius_sq)

    def test_scalar_interval_reduction(self):
        fit = self._fit([2.0], [[4.0]])
        region = confidence_region(fit, 0.05)
        half = np.sqrt(region.radius_sq / 4.0)
        for theta in np.linspace(2.0 - 2 * half, 2.0 + 2 * half, 41):
            inside_interval = abs(theta - 2.0) < half
            assert region.contains([theta]) == inside_interval

    def test_singular_info_gives_nao(self):
        fit = self._fit([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        assert is_nao(confidence_region(fit, 0.05))

    def test_nao_fit_gives_nao(self):
        fit = MleResult(NaO, None, NewtonTrace())
        assert is_nao(confidence_region(fit, 0.05))

    def test_lan_coverage_small(self):
        # smoke-scale coverage run; the acceptance suite does the 1e4 version
        k = np.array([[2.0, 0.3], [0.3, 1.0]])
        model = lan_normal_location(k)
        theta = np.array([0.4, -0.2])
        rng = np.random.default_rng(123)
        hits = 0
        n = 800
        for _ in range(n):
            data = model.simulate(theta, rng)
            fit = fit_mle(model, data)
            region = confidence_region(fit, 0.05)
            if not is_nao(region) and region.contains(theta):
                hits += 1
        assert 0.93 <= hits / n <= 0.97


class TestFitMle:
    # the starts 1 / mean: negative, and infinite, both outside the domain
    @pytest.mark.parametrize("data", [[-1.0, -2.0, -3.0], [1.0, -2.0, 1.0]], ids=["negative-start", "zero-mean"])
    def test_nao_start_gives_degenerate_nao(self, data):
        fit = fit_mle(ExponentialRateIid(3), np.array(data))
        assert is_nao(fit.theta_hat) and fit.observed_info is None
        assert np.isnan(fit.trace.final_grad_norm)
        assert not fit.converged and fit.trace.steps == 0

    def test_information_failing_the_pivot_test_is_nao(self):
        class FlatAxis(LikModel):
            """``-theta_0^2 / 2``, flat along theta_1: a zero gradient at the
            origin, its start, and a singular Hessian."""

            dim_param = 2
            domain = OpenBox.unbounded(2)

            def loglik(self, stack, thetas):
                hessian = np.broadcast_to(np.diag([-1.0, 0.0]), (len(thetas), 2, 2))
                return -0.5 * thetas[:, 0] ** 2, thetas * [-1.0, 0.0], hessian

        # the rate start 1 / mean = 5e299 squares to inf: a zero gradient, an information of 0
        for model, data in [(ExponentialRateIid(3), [1e-300, 2e-300, 3e-300]), (FlatAxis(), [0.0])]:
            fit = fit_mle(model, np.array(data))
            assert is_nao(fit.theta_hat) and fit.observed_info is None
            assert not fit.converged and fit.trace.steps == 0 and fit.trace.final_grad_norm == 0.0

    def test_nao_start_still_raises_in_the_ascent(self):
        model = ExponentialRateIid(3)
        data = np.array([-1.0, -2.0, -3.0])
        with pytest.raises(ValueError):
            safeguarded_maximize(model.objective(data), model.starts(np.array([data]))[0])

    def test_start_is_evaluated_once(self):
        class Counting(ExponentialRateIid):
            calls = 0

            def loglik(self, stack, thetas):
                Counting.calls += len(thetas)
                return super().loglik(stack, thetas)

        model = Counting(5)
        data = np.array([0.5, 1.0, 2.0, 0.2, 0.9])
        theta, trace = safeguarded_maximize(model.objective(data), model.starts(np.array([data]))[0])
        ascent_calls, Counting.calls = Counting.calls, 0
        fit = fit_mle(model, data)
        # the ascent's evaluations, nothing more: the information is the last one's
        assert Counting.calls == ascent_calls
        assert fit.trace.steps == trace.steps
        assert np.array_equal(fit.theta_hat, theta)
        assert fit.trace.final_grad_norm == trace.final_grad_norm


class TestStandardizedEstimator:
    def test_zero_at_psi(self):
        fit = MleResult(np.array([1.0, 2.0]), np.eye(2), NewtonTrace(0, True))
        assert np.allclose(standardized_estimator(fit, [1.0, 2.0]), np.zeros(2))

    def test_nao_fit(self):
        fit = MleResult(NaO, None, NewtonTrace())
        assert is_nao(standardized_estimator(fit, [0.0]))

    def test_known_transform(self):
        fit = MleResult(np.array([2.0]), np.array([[4.0]]), NewtonTrace(0, True))
        assert standardized_estimator(fit, [0.0]) == pytest.approx([4.0])


class TestRestrictedCoverageBound:
    def test_values(self):
        assert restricted_coverage_bound(0.05, 0.0) == pytest.approx(0.95)
        assert restricted_coverage_bound(0.05, 0.02) == pytest.approx(0.93)
        assert restricted_coverage_bound(0.05, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            restricted_coverage_bound(0.0, 0.1)
        with pytest.raises(ValueError):
            restricted_coverage_bound(0.05, 1.5)
