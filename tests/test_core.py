import gc
import warnings
import weakref

import numpy as np
import pytest
from conftest import fd_gradient, fd_hessian, random_spd, rel_err
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlik import (
    NaO,
    ObjectiveEval,
    OpenBox,
    QuadraticForm,
    is_nao,
    lan_normal_location,
    local_shift,
    quadratic_mle,
)
from quadlik.core import _FOLD_ROWS, _symmetrized, cholesky_pivots, reduce_rows, spd_factor
from quadlik.lamn import ConstantCurvature, LamnSpec, WishartCurvature
from quadlik.models import LanNormalLocation, RelationshipMatrix, wishart_lamn_model


class TestNaO:
    def test_singleton_identity(self):
        from quadlik.core import NaOType

        assert NaOType() is NaO
        assert is_nao(NaO)
        assert not is_nao(np.zeros(2))
        assert not NaO

    def test_repr(self):
        assert repr(NaO) == "NaO"


class TestQuadraticForm:
    def test_symmetrizes_small_asymmetry(self):
        k = np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]])
        q = QuadraticForm(0.0, [0.0, 0.0], k)
        assert np.array_equal(q.k, q.k.T)

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            QuadraticForm(0.0, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            QuadraticForm(0.0, [0.0, 0.0, 0.0], np.eye(2))

    def test_symmetrizing_keeps_huge_entries_finite(self):
        assert QuadraticForm(0.0, [0.0], [[1e308]]).k[0, 0] == 1e308
        ev = ObjectiveEval(0.0, [0.0], [[-1e308]])
        assert ev.hessian[0, 0] == -1e308 and ev.all_finite()


def _wishart_data(m):
    p = len(m)
    row = wishart_lamn_model(LamnSpec(p, WishartCurvature(p + 3.0, np.eye(p)))).parse_data(np.concatenate([np.ones(p), np.ravel(m)]))
    return row[p:].reshape(p, p), None


def _kept(built, matrix, factor=None):
    return getattr(built, matrix), None if factor is None else getattr(built, factor)


# each site that takes a matrix from outside: its stored matrix and, where it keeps one, its factor
MATRIX_SITES = {
    "quadratic-form": lambda m: _kept(QuadraticForm(0.0, np.zeros(len(m)), m), "k"),
    "lan": lambda m: _kept(LanNormalLocation(m), "k", "_factor"),
    "constant-curvature": lambda m: _kept(ConstantCurvature(m), "k", "_lower"),
    "wishart-scale": lambda m: _kept(WishartCurvature(5.0, m), "scale", "_lower"),
    "relationship": lambda m: _kept(RelationshipMatrix(m), "a"),
    "wishart-data": _wishart_data,
}


class TestOneMatrixRule:
    """Every matrix given from outside passes ``core.symmetric_matrix``: at most
    1e-12 relative asymmetry, then stored exactly symmetric."""

    BASE = np.array([[1.0, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("site", sorted(MATRIX_SITES))
    def test_asymmetry_past_the_bound_is_rejected(self, site):
        m = self.BASE.copy()
        m[0, 1] += 1e-11
        with pytest.raises(ValueError, match="not symmetric"):
            MATRIX_SITES[site](m)

    @pytest.mark.parametrize("site", sorted(MATRIX_SITES))
    def test_asymmetry_within_the_bound_is_symmetrized(self, site):
        m = self.BASE.copy()
        m[0, 1] += 1e-13
        k, _ = MATRIX_SITES[site](m)
        assert np.array_equal(k, k.T) and np.array_equal(k, _symmetrized(m))

    @pytest.mark.parametrize("site", sorted(MATRIX_SITES))
    def test_the_bound_is_relative_to_the_largest_entry(self, site):
        scale = 1.0 if site == "relationship" else 1e8  # relationship entries lie in [0, 2]
        loose, tight = scale * self.BASE, 1e-8 * self.BASE
        loose[0, 1] += scale * 5e-13
        tight[0, 1] += 1e-19
        assert np.array_equal(MATRIX_SITES[site](loose)[0], _symmetrized(loose))
        if site != "relationship":  # an absolute 1e-12 passes this one
            with pytest.raises(ValueError, match="not symmetric"):
                MATRIX_SITES[site](tight)

    @pytest.mark.parametrize("site", sorted(MATRIX_SITES))
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_exactly_symmetric_input_keeps_its_bits(self, site, p):
        m = random_spd(np.random.default_rng(p), p)
        m = m + m.T  # exactly symmetric
        if site == "relationship":  # its entries lie in [0, 2]
            m = np.abs(m) / np.abs(m).max()
        k, factor = MATRIX_SITES[site](m)
        assert np.array_equal(k, m)
        if factor is not None:
            assert np.array_equal(factor, cholesky_pivots(m)[0])

    @pytest.mark.parametrize("site", sorted(MATRIX_SITES))
    def test_huge_asymmetric_entries_do_not_overflow(self, site):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric"):
                MATRIX_SITES[site](np.array([[1e308, -1e308], [1e308, 1e308]]))

    def test_every_module_leaves_symmetry_to_core(self):
        import re
        from pathlib import Path

        import quadlik.core

        package = Path(quadlik.core.__file__).parent
        symmetry_test = re.compile(r"\b(\w+) - \1\.(?:T\b|swapaxes)|not symmetric|must be symmetric")
        found = {path.name for path in package.glob("*.py") if symmetry_test.search(path.read_text("utf8"))}
        assert found == {"core.py"}


class TestQuadraticLoglik:
    def test_zero_case(self):
        ev = QuadraticForm(0, [0.0], [[1.0]]).objective()([0.0])
        assert ev.value == 0.0
        assert ev.gradient == pytest.approx([0.0])
        assert np.allclose(ev.hessian, [[-1.0]])

    def test_direct_formula_1d(self):
        ev = QuadraticForm(1, [2.0], [[2.0]]).objective()([1.0])
        assert ev.value == pytest.approx(2.0)
        assert ev.gradient == pytest.approx([0.0])
        assert np.allclose(ev.hessian, [[-2.0]])

    def test_direct_formula_2d(self):
        ev = QuadraticForm(0, [1.0, 1.0], [[2.0, 0.0], [0.0, 4.0]]).objective()([1.0, 1.0])
        assert ev.value == pytest.approx(-1.0)
        assert ev.gradient == pytest.approx([-1.0, -3.0])

    def test_dimension_mismatch(self):
        assert is_nao(QuadraticForm(0, [1.0], [[1.0]]).objective()([1.0, 2.0]))

    def test_nao_propagates(self):
        assert is_nao(QuadraticForm(0, [1.0], [[1.0]]).objective()(NaO))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            q = QuadraticForm(rng.standard_normal(), rng.standard_normal(p), random_spd(rng, p))
            theta = rng.standard_normal(p)
            ev = q.objective()(theta)
            value = lambda t: q.objective()(t).value
            assert rel_err(ev.gradient, fd_gradient(value, theta)) < 1e-6
            assert rel_err(ev.hessian, fd_hessian(value, theta)) < 1e-4


class TestQuadraticMle:
    def test_diagonal_solve(self):
        mle = quadratic_mle(QuadraticForm(0, [2.0, 4.0], [[2.0, 0.0], [0.0, 4.0]]))
        assert mle == pytest.approx([1.0, 1.0])

    def test_identity(self):
        assert quadratic_mle(QuadraticForm(0, [3.0, -1.0], np.eye(2))) == pytest.approx([3.0, -1.0])

    def test_singular_curvature_gives_nao(self):
        assert is_nao(quadratic_mle(QuadraticForm(0, [1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])))

    def test_stationary_point(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            p = int(rng.integers(1, 6))
            q = QuadraticForm(0.0, rng.standard_normal(p), random_spd(rng, p))
            mle = quadratic_mle(q)
            assert not is_nao(mle)
            grad = q.objective()(mle).gradient
            assert np.max(np.abs(grad)) < 1e-10


class TestSpdFactor:
    def test_zero_matrix_rejected(self):
        assert spd_factor(np.zeros((2, 2))) is None

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = int(rng.integers(1, 6))
            m = random_spd(rng, p)
            lower = spd_factor(m)
            assert lower is not None
            assert rel_err(lower @ lower.T, m) < 1e-12

    def test_indefinite_rejected(self):
        assert spd_factor(np.diag([1.0, -1.0])) is None


# entries: ordinary reals, values near the float maximum, and NaN
_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(1e307, 1.7e308),
    st.floats(-1.7e308, -1e307),
    st.just(float("nan")),
)


@st.composite
def _matrix_stacks(draw):
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    mats = []
    for _ in range(n):
        kind = draw(st.sampled_from(["spd", "indefinite", "raw"]))
        g = np.array(draw(st.lists(_ENTRIES, min_size=p * p, max_size=p * p))).reshape(p, p)
        with np.errstate(all="ignore"):
            if kind == "spd":
                g = np.nan_to_num(g, nan=1.0) / 1e154
                g = g @ g.T + draw(st.floats(0.0, 2.0)) * np.eye(p)
            elif kind == "indefinite":
                g = np.nan_to_num(g, nan=0.0)
                g = 0.5 * g + 0.5 * g.T
                g[p - 1, p - 1] = -abs(g[p - 1, p - 1]) - 1.0
        mats.append(g)
    return np.array(mats)


class TestStackedPivots:
    """A stack is decided matrix by matrix, exactly as each matrix alone."""

    @settings(max_examples=300, deadline=None)
    @given(stack=_matrix_stacks())
    def test_rows_match_single_calls(self, stack):
        with np.errstate(all="ignore"):
            lower, min_pivot = cholesky_pivots(stack)
            singles = [cholesky_pivots(m) for m in stack]
        assert lower.shape == stack.shape and min_pivot.shape == stack.shape[:1]
        for row_lower, row_pivot, (single_lower, single_pivot) in zip(lower, min_pivot, singles):
            assert np.isnan(row_lower[0, 0]) == (single_lower is None)
            if single_lower is not None:
                assert np.array_equal(row_lower, single_lower)
                assert np.all(np.isfinite(row_lower))
            assert row_pivot == single_pivot

    @settings(max_examples=60, deadline=None)
    @given(stack=_matrix_stacks())
    def test_long_stack_rows_match_single_calls(self, stack):
        """The same past ``_FOLD_ROWS`` matrices, where the floor and the row
        sums fold over the stack's columns."""
        reps = -(-_FOLD_ROWS // len(stack)) + 1
        with np.errstate(all="ignore"):
            lower, min_pivot = cholesky_pivots(np.tile(stack, (reps, 1, 1)))
            singles = [cholesky_pivots(m) for m in stack]
        for i, (single_lower, single_pivot) in enumerate(singles * reps):
            if single_lower is None:
                assert np.isnan(lower[i]).all()
            else:
                assert np.array_equal(lower[i], single_lower)
            assert min_pivot[i] == single_pivot

    def test_nan_entry_fails_with_minus_infinity(self):
        for m in (np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.nan]])):
            assert cholesky_pivots(m) == (None, -np.inf)

    def test_nested_stack_shape(self):
        stack = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
        stack[1, 2] = -np.eye(2)
        lower, min_pivot = cholesky_pivots(stack)
        assert lower.shape == (2, 3, 2, 2) and min_pivot.shape == (2, 3)
        assert np.isnan(lower[1, 2]).all() and min_pivot[1, 2] == -1.0
        assert np.array_equal(lower[0, 0], np.eye(2)) and min_pivot[0, 0] == 1.0

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 1, 1), (2, 0, 2, 2)])
    def test_empty_stack(self, shape):
        lower, min_pivot = cholesky_pivots(np.zeros(shape))
        assert lower.shape == shape and min_pivot.shape == shape[:-2]
        assert spd_factor(np.zeros(shape)).shape == shape


_SPECIALS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 1e308, -1e308]


class TestReduceRows:
    """``reduce_rows`` is numpy's reduce over the last axis, bit for bit, on
    stacks of either side of ``_FOLD_ROWS`` rows."""

    @settings(max_examples=300, deadline=None)
    @given(
        ufunc=st.sampled_from([np.add, np.maximum, np.logical_and]),
        k=st.integers(1, 9),
        m=st.sampled_from([1, 2, _FOLD_ROWS - 1, _FOLD_ROWS, _FOLD_ROWS + 3, 3 * _FOLD_ROWS]),
        a=st.sampled_from([None, 1, 2, 3]),
        palette=st.lists(st.one_of(st.sampled_from(_SPECIALS), st.floats(allow_nan=False)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(ufunc=np.add, k=3, m=_FOLD_ROWS, a=None, palette=[np.inf, -np.inf, np.nan], seed=0)
    @example(ufunc=np.maximum, k=9, m=_FOLD_ROWS, a=None, palette=[0.0, -0.0, -1.0], seed=0)
    @example(ufunc=np.add, k=1, m=_FOLD_ROWS, a=2, palette=[-0.0], seed=0)
    # numpy sums 8 or more entries pairwise, which a left fold does not give
    @example(ufunc=np.add, k=9, m=_FOLD_ROWS, a=None, palette=[1.0, 1e16, -1e16], seed=0)
    def test_equals_numpy_reduce_bit_for_bit(self, ufunc, k, m, a, palette, seed):
        # an (m, k) stack, or an (m, a, k) one
        shape = (m, k) if a is None else (m, a, k)
        x = np.random.default_rng(seed).choice(np.array(palette), size=shape)
        if ufunc is np.logical_and:
            x = x != 0
        with np.errstate(all="ignore"):
            expected, got = ufunc.reduce(x, axis=-1), reduce_rows(ufunc, x)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        view = np.int8 if x.dtype == bool else np.int64
        assert np.array_equal(got.view(view), expected.view(view))


class TestOpenBox:
    def test_membership_is_strict(self):
        box = OpenBox([0.0], [1.0])
        assert box.contains([0.5])
        assert not box.contains([0.0])
        assert not box.contains([1.0])

    def test_unbounded(self):
        box = OpenBox.unbounded(3)
        assert box.contains([1e300, -1e300, 0.0])
        assert not box.contains([np.inf, 0.0, 0.0])


class TestLocalShift:
    def test_zero_at_zero_exactly(self):
        model = lan_normal_location(np.diag([2.0, 3.0]))
        data = np.array([0.7, -0.4])
        q = local_shift(model, data, psi=[0.3, 0.1], tau=1.0)
        assert q(np.zeros(2)).value == 0.0

    def test_quadratic_shift_algebra(self):
        # hand-expanded: l(psi+d) - l(psi) = z.d - psi'K d - d'K d / 2
        rng = np.random.default_rng(5)
        k = random_spd(rng, 2)
        z = rng.standard_normal(2)
        model = lan_normal_location(k)
        psi = rng.standard_normal(2)
        q = local_shift(model, z, psi, tau=1.0)
        for _ in range(10):
            d = rng.standard_normal(2)
            expected = float(z @ d - psi @ k @ d - 0.5 * d @ k @ d)
            assert q(d).value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_tau_scaling_of_hessian(self):
        model = lan_normal_location(np.diag([2.0, 5.0]))
        data = np.array([1.0, 2.0])
        n = 16.0
        q = local_shift(model, data, psi=[0.0, 0.0], tau=np.sqrt(n))
        base = model.objective(data)(np.zeros(2))
        assert np.allclose(q(np.zeros(2)).hessian, base.hessian / n)

    def test_chain_rule_matches_finite_differences(self):
        model = lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]]))
        data = np.array([0.2, -1.0])
        q = local_shift(model, data, psi=[0.4, -0.2], tau=3.0)
        d0 = np.array([0.3, 0.9])
        ev = q(d0)
        value = lambda d: q(d).value
        assert rel_err(ev.gradient, fd_gradient(value, d0)) < 1e-6
        assert rel_err(ev.hessian, fd_hessian(value, d0)) < 1e-4

    def test_outside_domain_gives_nao(self):
        from quadlik import ExponentialRateIid

        model = ExponentialRateIid(5)
        data = np.abs(np.random.default_rng(0).standard_normal(5)) + 0.1
        q = local_shift(model, data, psi=[1.0], tau=1.0)
        assert is_nao(q(np.array([-2.0])))

    def test_preserves_maximizer_on_quadratics(self):
        rng = np.random.default_rng(11)
        for tau in (1.0, 3.0):
            k = random_spd(rng, 2)
            z = rng.standard_normal(2)
            model = lan_normal_location(k)
            psi = rng.standard_normal(2)
            q = local_shift(model, z, psi, tau)
            mle = quadratic_mle(QuadraticForm(0.0, z, k))
            from quadlik import newton_iterate

            argmax, trace = newton_iterate(q, np.zeros(2))
            assert trace.converged
            assert np.allclose(argmax, tau * (mle - psi), atol=1e-8)

    def test_nao_propagates(self):
        model = lan_normal_location(np.eye(2))
        q = local_shift(model, np.zeros(2), np.zeros(2))
        assert is_nao(q(NaO))

    def test_psi_outside_domain_raises(self):
        from quadlik import ExponentialRateIid

        model = ExponentialRateIid(4)
        with pytest.raises(ValueError, match="domain"):
            local_shift(model, np.ones(4), psi=[-1.0], tau=1.0)

    def test_freed_without_the_garbage_collector(self):
        # a reference cycle through the shift would keep its model (for the
        # animal model, N x N matrices) alive until the next collection
        model = lan_normal_location(np.eye(2))
        alive = weakref.ref(model)
        q = local_shift(model, np.zeros(2), np.zeros(2))
        q(np.ones(2))
        gc.disable()
        try:
            del model, q
            assert alive() is None
        finally:
            gc.enable()


class TestObjectiveEval:
    def test_rejects_asymmetric_hessian(self):
        with pytest.raises(ValueError, match="not symmetric"):
            ObjectiveEval(0.0, [0.0, 0.0], [[1.0, 0.3], [0.0, 1.0]])

    def test_all_finite(self):
        assert ObjectiveEval(0.0, [1.0], [[2.0]]).all_finite()
        assert not ObjectiveEval(np.nan, [1.0], [[2.0]]).all_finite()
