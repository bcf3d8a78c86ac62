import signal
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import random_spd, rel_err, row_objective
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadlik import (
    LikModel,
    NaO,
    OpenBox,
    QuadraticForm,
    fit_mle,
    is_nao,
    newton_iterate,
    newton_step,
    quadratic_mle,
    safeguarded_maximize,
)
from quadlik.core import StackedEval


quartic = row_objective(lambda th: (-(th[:, 0] ** 4) / 4.0, -(th**3), -3.0 * (th * th)[:, :, None]))

convex = row_objective(lambda th: (th[:, 0] * th[:, 0] / 2.0, th, np.ones((len(th), 1, 1))))


def logistic_style(x, y):
    """Strictly concave 1-d log likelihood of logistic-regression form."""

    def kernel(th):
        eta = th * x
        value = (y * eta - np.logaddexp(0.0, eta)).sum(axis=1)
        mu = 1.0 / (1.0 + np.exp(-eta))
        grad = (x * (y - mu)).sum(axis=1)
        hess = -(x * x * mu * (1.0 - mu)).sum(axis=1)
        return value, grad[:, None], hess[:, None, None]

    return row_objective(kernel)


def quadratic_1d(b, c):
    """``b x - c x^2 / 2``: concave for c > 0, convex (unbounded above) for c < 0."""

    def kernel(th):
        x = th[:, 0]
        return b * x - 0.5 * c * x * x, b - c * th, np.full((len(th), 1, 1), -c)

    return row_objective(kernel)


@contextmanager
def deadline(seconds):
    """Fail a call that does not return in time instead of hanging the suite."""

    def expire(signum, frame):
        raise AssertionError(f"call still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def golden_section_max(f, lo, hi, tol=1e-12):
    """Derivative-free maximization oracle on a bracket."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while abs(b - a) > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return (a + b) / 2.0


def ascent_values(q, start, steps):
    """The objective after 0, 1, ..., ``steps`` safeguarded steps from ``start``.

    Each step is a run capped at ``max_steps = 1`` from the previous point,
    under the full run's tolerance: the ascent keeps no other state between
    steps, so point k is where a run capped at ``max_steps = k`` stops.
    """
    tol = 1e-8 * (1.0 + abs(q(start).value))
    points = [start]
    for _ in range(steps):
        points.append(safeguarded_maximize(q, points[-1], tol=tol, max_steps=1)[0])
    return [q(x).value for x in points]


class TestNewtonStep:
    def test_one_step_exactness_on_quadratics(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            q = QuadraticForm(rng.standard_normal(), rng.standard_normal(p), random_spd(rng, p))
            start = 3.0 * rng.standard_normal(p)
            step = newton_step(q.objective(), start)
            assert rel_err(step, quadratic_mle(q)) < 1e-10

    def test_quartic_hand_value(self):
        step = newton_step(quartic, np.array([1.0]))
        assert step == pytest.approx([2.0 / 3.0])

    def test_convex_gives_nao(self):
        assert is_nao(newton_step(convex, np.array([0.7])))

    def test_nao_propagates(self):
        assert is_nao(newton_step(quartic, NaO))

    @pytest.mark.parametrize(
        "z, k",
        [
            # the solve overflows to inf and then 0 * inf: no entry is a number
            ([1e300, 0.0], np.diag([1e-20, 1e-6])),
            # one entry overflows to inf, the others stay finite
            ([1e300, 1e300, 0.0, 1.0], np.diag([1e-12, 1.0, 1.0, 1.0])),
            # an SPD matrix scaled to 1e-300 against z ~ 1e150: inf and NaN entries
            (1e150 * np.random.default_rng(7).standard_normal(4), 1e-300 * random_spd(np.random.default_rng(8), 4)),
        ],
        ids=["all-nan", "one-inf", "scaled-spd"],
    )
    def test_step_that_solves_to_all_nan_is_nao(self, z, k):
        # the pivot test passes, but the destination is not finite in every entry
        q = QuadraticForm(0.0, z, k).objective()
        assert is_nao(newton_step(q, np.zeros(len(z))))

    def test_idempotent_at_optimum(self):
        rng = np.random.default_rng(1)
        q = QuadraticForm(0.0, rng.standard_normal(3), random_spd(rng, 3))
        opt = quadratic_mle(q)
        assert np.allclose(newton_step(q.objective(), opt), opt, atol=1e-10)


class TestNewtonIterate:
    def test_one_step_convergence_on_quadratics(self):
        rng = np.random.default_rng(4)
        q = QuadraticForm(0.0, rng.standard_normal(3), random_spd(rng, 3))
        result, trace = newton_iterate(q.objective(), rng.standard_normal(3))
        assert trace.converged
        assert trace.steps == 1
        assert rel_err(result, quadratic_mle(q)) < 1e-10

    def test_nao_start(self):
        result, trace = newton_iterate(quartic, NaO)
        assert is_nao(result)
        assert np.isnan(trace.final_grad_norm)
        assert trace.steps == 0
        assert not trace.converged

    def test_max_steps_exhaustion_yields_nao(self):
        # quartic Newton contracts by 2/3 per step; 3 steps cannot reach tol
        result, trace = newton_iterate(quartic, np.array([3.0]), tol=1e-10, max_steps=3)
        assert is_nao(result)
        assert trace.steps == 3
        assert not trace.converged

    def test_step_failure_records_nao(self):
        # the failed step counts; the norm is the start's, the last finite one
        result, trace = newton_iterate(convex, np.array([0.5]), tol=1e-12)
        assert is_nao(result)
        assert trace.steps == 1 and not trace.converged
        assert trace.final_grad_norm == 0.5

    def test_superlinear_decay_against_golden_section(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(40)
        y = (rng.random(40) < 0.5).astype(float)
        q = logistic_style(x, y)
        result, trace = newton_iterate(q, np.array([0.0]), tol=1e-10)
        assert trace.converged
        oracle = golden_section_max(lambda t: q([t]).value, -5.0, 5.0)
        # value comparisons cannot localize a smooth maximum beyond ~sqrt(eps)
        assert abs(float(result[0]) - oracle) < 5e-8
        assert q(result).value >= q([oracle]).value - 1e-12
        # superlinear: along successive Newton steps, the gradient-norm
        # ratios shrink toward zero
        point, norms = np.array([0.0]), []
        for _ in range(trace.steps):
            norms.append(float(np.max(np.abs(q(point).gradient))))
            point = newton_step(q, point)
        assert np.array_equal(point, result)
        norms = [g for g in norms + [trace.final_grad_norm] if g > 0]
        ratios = [b / a for a, b in zip(norms, norms[1:])]
        assert len(ratios) >= 2
        assert ratios[-1] < 0.1 * ratios[0]
        assert ratios[-1] < 1e-3

    def test_trace_invariants(self):
        rng = np.random.default_rng(9)
        q = QuadraticForm(0.0, rng.standard_normal(2), random_spd(rng, 2))
        result, trace = newton_iterate(q.objective(), rng.standard_normal(2))
        assert trace.converged and trace.steps == 1
        assert not is_nao(result)
        assert trace.final_grad_norm == float(np.max(np.abs(q.objective()(result).gradient)))
        assert trace.final_grad_norm <= 1e-8 * (1 + abs(q.u))


class TestContinuityUnderPerturbation:
    def test_step_converges_as_perturbation_vanishes(self):
        # perturb a strictly concave quadratic by a smooth bounded bump and
        # watch the one-step map converge to the unperturbed answer
        rng = np.random.default_rng(12)
        k = random_spd(rng, 2)
        z = rng.standard_normal(2)
        q = QuadraticForm(0.0, z, k)
        delta = rng.standard_normal(2)

        def perturbed(eps):
            def kernel(th):
                value, gradient, hessian = StackedEval.split(q.objective().stack(th).packed, 2)
                s0, c0, s1, c1 = np.sin(th[:, 0]), np.cos(th[:, 0]), np.sin(th[:, 1]), np.cos(th[:, 1])
                bump_grad = np.stack([c0 * c1, -s0 * s1], axis=1)
                bump_hess = np.stack(
                    [np.stack([-s0 * c1, -c0 * s1], axis=1), np.stack([-c0 * s1, -s0 * c1], axis=1)], axis=1
                )
                return value + eps * (s0 * c1), gradient + eps * bump_grad, hessian + eps * bump_hess

            return row_objective(kernel, dim=2)

        exact = newton_step(q.objective(), delta)
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            moved = newton_step(perturbed(eps), delta)
            assert not is_nao(moved)
            gaps.append(float(np.max(np.abs(moved - exact))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-5


class TestSafeguardedMaximize:
    def test_matches_newton_on_quadratics(self):
        rng = np.random.default_rng(3)
        q = QuadraticForm(0.0, rng.standard_normal(3), random_spd(rng, 3))
        start = rng.standard_normal(3)
        plain, plain_trace = newton_iterate(q.objective(), start)
        safe, safe_trace = safeguarded_maximize(q.objective(), start)
        assert plain_trace.converged and safe_trace.converged
        assert safe_trace.steps == 1
        assert np.allclose(safe, plain, atol=1e-12)

    def test_quartic_from_far_start(self):
        result, trace = safeguarded_maximize(quartic, np.array([3.0]))
        assert trace.converged
        assert abs(float(result[0])) < 1e-2
        # plain Newton never reaches the flat-Hessian region this cleanly:
        # at the optimum the curvature is exactly zero, so the unshifted
        # pivot test fails there
        assert is_nao(newton_step(quartic, np.array([0.0])))

    def test_monotone_ascent(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(30)
        y = (rng.random(30) < 0.4).astype(float)
        q = logistic_style(x, y)
        result, trace = safeguarded_maximize(q, np.array([4.0]))
        assert trace.converged and trace.steps > 1
        values = ascent_values(q, np.array([4.0]), trace.steps)
        assert all(b >= a for a, b in zip(values, values[1:]))
        # a max_steps = 0..K sweep stops at the same points
        sweep = [safeguarded_maximize(q, np.array([4.0]), max_steps=k)[0] for k in range(trace.steps + 1)]
        assert values == [q(x).value for x in sweep]
        assert values[-1] == q(result).value

    def test_nonfinite_start_raises(self):
        nowhere = row_objective(lambda th: (th[:, 0] * np.nan, th * np.nan, th[:, :, None] * np.nan))
        with pytest.raises(ValueError, match="not finite"):
            safeguarded_maximize(nowhere, np.array([0.0]))

    def test_never_nao_on_hard_objective(self):
        # concave-but-flat regions force the shift path; result stays real
        plateau = row_objective(lambda th: (-(th[:, 0] ** 6) / 6.0, -(th**5), -5.0 * (th**4)[:, :, None]))

        result, trace = safeguarded_maximize(plateau, np.array([2.0]))
        assert not is_nao(result)
        assert trace.converged

    def test_overflowing_shift_stops_unconverged(self):
        # curvature +8e307: the shift lambda = 8e307 leaves a zero pivot and
        # the next tenfold escalation overflows to inf
        q = quadratic_1d(0.0, -8e307)

        class SteepConvex(LikModel):
            dim_param = 1
            domain = OpenBox.unbounded(1)

            def loglik(self, stack, thetas):
                return StackedEval.split(q.stack(thetas).packed, 1)

            def starts(self, stack):
                return np.full((len(stack), 1), 1e-300)

        with deadline(5.0):
            result, trace = safeguarded_maximize(q, np.array([1e-300]))
            fit = fit_mle(SteepConvex(), None)
        assert not trace.converged
        assert trace.steps == 0
        assert not is_nao(result)
        assert is_nao(fit.theta_hat)

    def test_pivot_failure_above_the_shift_floor_stops_unconverged(self):
        # the second pivot 3.8e-6 fails the floor 2 eps 1e10 = 4.4e-6 but lies
        # above 1e-8, so the shift lambda = 1e-8 - pivot is not positive
        k = np.array([[1e10, 1e10], [1e10, 1e10 + 4e-6]])
        q = QuadraticForm(0.0, np.array([1.0, 0.0]), k).objective()
        result, trace = safeguarded_maximize(q, np.array([0.0, 0.0]))
        assert not trace.converged and trace.steps == 0
        assert np.array_equal(result, [0.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.floats(-1e3, 1e3),
        c=st.floats(-1e308, 1e308).filter(lambda v: v != 0.0),
        x0=st.floats(-1e3, 1e3),
    )
    def test_returns_with_nondecreasing_values(self, b, c, x0):
        q = quadratic_1d(b, c)
        assume(not is_nao(q(np.array([x0]))))
        with deadline(2.0):
            result, trace = safeguarded_maximize(q, np.array([x0]))
            values = ascent_values(q, np.array([x0]), trace.steps)
        assert all(v1 >= v0 for v0, v1 in zip(values, values[1:]))
        assert values[-1] == q(result).value


class TestNaOPropagationTable:
    def test_all_newton_operations(self):
        q = QuadraticForm(0.0, [1.0], [[1.0]]).objective()
        assert is_nao(newton_step(q, NaO))
        result, _ = newton_iterate(q, NaO)
        assert is_nao(result)

    @pytest.mark.parametrize(
        "delta",
        [np.zeros((2, 1)), np.zeros(0), np.zeros(3), np.array([np.nan, 0.0]), np.array([0.0, np.inf])],
        ids=["column", "empty", "wrong-length", "nan", "inf"],
    )
    def test_parameters_that_are_not_a_point(self, delta):
        q = QuadraticForm(0.0, [1.0, -1.0], np.eye(2)).objective()
        assert is_nao(newton_step(q, delta))
        result, trace = newton_iterate(q, delta)
        assert is_nao(result)
        assert (trace.steps, trace.converged) == (0, False) and np.isnan(trace.final_grad_norm)
