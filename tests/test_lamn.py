import numpy as np
import pytest

import quadlik.core
import quadlik.inference
import quadlik.parallel
from conftest import random_spd
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlik import (
    ConstantCurvature,
    LamnSpec,
    WishartCurvature,
    contiguity_estimate,
    derive_rng,
    hessian_invariance_test,
    is_nao,
    lan_normal_location,
    make_wald_pivot,
    model_contiguity_estimate,
    parametric_bootstrap,
    quadratic_mle,
    sample_lamn,
    sample_lamn_batch,
    score_normality_test,
    wishart_lamn_model,
)
from quadlik.core import NaO, QuadraticForm, spd_factor
from quadlik.models import Ar1Model, DataFormatError, LanNormalLocation
from quadlik.inference import fit_stack
from quadlik.lamn import sample_lamn_stack
from quadlik.parallel import draw
from quadlik.rng import derive_streams


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

    def test_draw_whose_k_fails_is_an_nao_row(self):
        # at dof 2.01 the Bartlett draws of these streams are numerically singular
        spec = wishart_spec(3, 2.01)
        for i in range(1, 5):
            row = sample_lamn(spec, np.zeros(3), derive_rng(3, i))
            assert row.shape == (12,) and np.isnan(row[:3]).all() and spd_factor(row[3:].reshape(3, 3)) is None
            assert np.array_equal(row, sample_lamn_stack(spec, [np.zeros(3)], [derive_rng(3, i)])[0], equal_nan=True)


class TestScaleFactorCache:
    """A law's matrix is factored once, when the law is built; each draw then
    runs one pivot test, of its own K where it draws one."""

    SCALE = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]]) / 5.0

    def pivot_tests(self, monkeypatch, law):
        """Whether each pivot test of building ``law`` and drawing 100 times from it is of ``SCALE``."""
        seen = []
        original = quadlik.core.cholesky_pivots

        def counting(m):
            seen.append(np.array_equal(m, self.SCALE))
            return original(m)

        monkeypatch.setattr(quadlik.core, "cholesky_pivots", counting)
        monkeypatch.setattr(quadlik.lamn, "cholesky_pivots", counting)
        spec = LamnSpec(3, law(self.SCALE))
        assert len([sample_lamn(spec, np.zeros(3), derive_rng(71, i)) for i in range(100)]) == 100
        return seen

    def test_scale_is_factored_once_per_law(self, monkeypatch):
        seen = self.pivot_tests(monkeypatch, lambda scale: WishartCurvature(5.0, scale))
        assert sum(seen) == 1 and len(seen) == 101

    def test_constant_curvature_is_factored_once(self, monkeypatch):
        assert self.pivot_tests(monkeypatch, ConstantCurvature) == [True]


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
        assert np.array_equal(draw, np.concatenate([z[0], k[0].ravel()]))

    def test_all_draws_positive_semidefinite(self):
        # curvature realizations must never have eigenvalues materially below zero
        for spec in (wishart_spec(), LamnSpec(2, ConstantCurvature(np.array([[2.0, 0.9], [0.9, 1.0]])))):
            _, k = sample_lamn_batch(spec, np.zeros(2), 2000, derive_rng(31))
            eigs = np.linalg.eigvalsh(k)
            scale = np.abs(k).max()
            assert eigs.min() >= -1e-10 * scale


def pivot_factor(k):
    """The factor of one K by the pivot test of that K alone, all NaN where it
    fails.  Looked up on ``quadlik.core`` at each call, so a test that makes
    the pivot test reject some K makes it reject it here too."""
    lower = quadlik.core.cholesky_pivots(k)[0]
    return np.full(k.shape, np.nan) if lower is None else lower


def reference_draw(spec, theta, rng):
    """One draw in the documented stream order, written out step by step:
    the p chi-squares, the strict lower-triangle normals, then xi, as a data
    row (z, then k as drawn).  z is NaN where K fails the pivot test; K
    is never redrawn."""
    p, law = spec.dim, spec.curvature
    if isinstance(law, ConstantCurvature):
        k, factor = law.k[None].copy(), spd_factor(law.k)[None]
    else:
        c = np.zeros((1, p, p))
        for i in range(p):
            c[:, i, i] = np.sqrt(rng.chisquare(law.dof - i, size=1))
        if p > 1:
            rows, cols = np.tril_indices(p, k=-1)
            c[:, rows, cols] = rng.standard_normal((1, rows.size))
        f = np.einsum("ij,njk->nik", spd_factor(law.scale), c)
        k = np.einsum("nik,njk->nij", f, f)
        factor = pivot_factor(k[0])[None]
    xi = rng.standard_normal((1, p))
    z = np.einsum("nij,j->ni", k, np.asarray(theta, dtype=float)) + np.einsum("nij,nj->ni", factor, xi)
    return np.concatenate([z[0], k[0].ravel()])


class FixedStream:
    """A stand-in stream that hands out fixed chi-squares and normals in call
    order."""

    def __init__(self, chi, normals):
        self.chi, self.normals = list(chi), list(normals)

    def chisquare(self, df, size=None):
        return self.chi.pop(0) if size is None else np.full(size, self.chi.pop(0))

    def standard_normal(self, size=None, out=None):
        n = int(np.prod(size if out is None else out.shape))
        values, self.normals = self.normals[:n], self.normals[n:]
        if out is None:
            return np.reshape(values, size)
        out[...] = np.reshape(values, out.shape)
        return out


def as_rows(draws, p):
    """Draws, rows or the rows of a stack, as one Wishart data stack, z then k row-major."""
    return np.array(draws).reshape(len(draws), p + p * p)


def assert_same_draws(stacked, looped, p):
    """Same draws, bit for bit (a NaN z, an NaO row, equal to a NaN), whether
    each side is a stack or a list of draws."""
    a, b = as_rows(stacked, p), as_rows(looped, p)
    assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


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
        stacked = model.simulate_stack([theta], [derive_rng(seed, i) for i in range(n)])
        looped = [model.simulate(theta, derive_rng(seed, i)) for i in range(n)]
        assert_same_draws(stacked, looped, spec.dim)
        assert_same_draws(looped, [sample_lamn(spec, theta, derive_rng(seed, i)) for i in range(n)], spec.dim)
        assert_same_draws(looped, [reference_draw(spec, theta, derive_rng(seed, i)) for i in range(n)], spec.dim)


class OwnLevel:
    """40 of a caller's own generators, ``derive_rng(81, i)``, at one centre."""

    def __init__(self, theta):
        self.thetas = np.broadcast_to(theta, (40, len(theta)))

    def streams(self):
        return [self.fresh(i) for i in range(40)]

    def fresh(self, i):
        return derive_rng(81, i)


class KeyedLevel(OwnLevel):
    """A keyed level of 4 centres of 10 streams, ``(81, "c", c, j)``."""

    def __init__(self, theta):
        self.thetas = np.repeat(theta + 0.5 * np.arange(4)[:, None], 10, axis=0)

    def streams(self):
        return derive_streams(81, [("c", c) for c in range(4)], 10)

    def fresh(self, i):
        return derive_rng(81, "c", i // 10, i % 10)


class TestStackedDrawRarePaths:
    spec = LamnSpec(3, WishartCurvature(5.0, np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]])))
    theta = np.array([0.5, -1.0, 0.25])

    def first_k(self, level, i):
        return sample_lamn_batch(self.spec, level.thetas[i], 1, level.fresh(i))[1][0]

    @staticmethod
    def reject(monkeypatch, poisoned):
        """Make the pivot test fail on each matrix of ``poisoned``, as drawn,
        wherever it runs: the sampler's, the fit's and the references'."""
        real = quadlik.core.cholesky_pivots

        def cholesky_pivots(m):
            lower, pivots = real(m)
            below = np.zeros(np.shape(m)[:-2], dtype=bool)
            for q in poisoned:
                below |= np.all(np.asarray(m) == q, axis=(-2, -1))
            if np.ndim(m) == 2:
                return (None if below else lower), pivots
            lower[below] = np.nan
            return lower, pivots

        for module in (quadlik.core, quadlik.inference, quadlik.lamn):
            monkeypatch.setattr(module, "cholesky_pivots", cholesky_pivots)

    def check_rejected_rows_are_nao(self, level, monkeypatch, rows):
        """The rows whose K fails the pivot test keep that K with a NaN z, and
        are NaO; every other row is the unforced draw, bit for bit."""
        model = wishart_lamn_model(self.spec)
        before = model.simulate_stack(level.thetas, level.streams())
        self.reject(monkeypatch, [self.first_k(level, i) for i in rows])
        stacked = model.simulate_stack(level.thetas, level.streams())
        singles = [model.simulate(level.thetas[i], level.fresh(i)) for i in range(40)]
        assert_same_draws(stacked, singles, 3)
        references = [reference_draw(self.spec, level.thetas[i], level.fresh(i)) for i in range(40)]
        assert_same_draws(stacked, references, 3)
        assert np.isnan(stacked[rows, :3]).all() and np.array_equal(stacked[:, 3:], before[:, 3:])
        assert_same_draws(np.delete(stacked, rows, axis=0), np.delete(before, rows, axis=0), 3)
        ev = model.stacked_objective(stacked)(np.arange(40), level.thetas)
        assert np.flatnonzero(~ev.ok).tolist() == rows

    def test_rejected_row_is_nao_from_its_own_stream(self, monkeypatch):
        self.check_rejected_rows_are_nao(OwnLevel(self.theta), monkeypatch, [7])

    def test_keyed_level_rejected_row_is_nao(self, monkeypatch):
        self.check_rejected_rows_are_nao(KeyedLevel(self.theta), monkeypatch, [7])

    def test_rows_rejected_at_once_are_all_nao(self, monkeypatch):
        self.check_rejected_rows_are_nao(OwnLevel(self.theta), monkeypatch, [7, 8, 31])

    def test_keyed_level_rows_rejected_at_once_are_all_nao(self, monkeypatch):
        self.check_rejected_rows_are_nao(KeyedLevel(self.theta), monkeypatch, [0, 7, 39])

    def test_row_below_the_pivot_floor_is_nao(self, monkeypatch):
        # K = diag(1, 1e-20): LAPACK factors it, but its last pivot lies
        # below the floor 2 * eps * max|K|, and the pivot test alone decides
        spec = LamnSpec(2, WishartCurvature(1.5, np.eye(2)))
        model = wishart_lamn_model(spec)
        fixed = lambda: FixedStream([1.0, 1e-20], [0.0, 0.3, -0.2])  # noqa: E731
        k = sample_lamn_batch(spec, np.zeros(2), 1, fixed())[1]
        np.linalg.cholesky(k)
        assert spd_factor(k[0]) is None
        streams = lambda *_: [derive_rng(82, 0), derive_rng(82, 1), fixed(), derive_rng(82, 2)]  # noqa: E731
        stacked = model.simulate_stack([np.zeros(2)], streams())
        assert np.flatnonzero(~np.isfinite(stacked).all(axis=1)).tolist() == [2]
        assert np.isnan(stacked[2, :2]).all() and np.array_equal(stacked[2, 2:], k[0].ravel())
        assert fit_stack(model, stacked)[3].tolist() == [True, True, False, True]
        # a level drawn from these streams: its refit of row 2 is counted NaO
        monkeypatch.setattr(quadlik.parallel, "derive_streams", streams)
        samples = parametric_bootstrap(model, np.zeros(2), 4, make_wald_pivot(model), 5)
        assert samples.to_record()["pivot_n_nao"] == 1 and samples.values.size == 3

    def test_keyed_level_row_below_the_pivot_floor_is_nao(self, monkeypatch):
        # no key of this spec draws a K below the pivot floor, so the floor is
        # made to reject the K of one row of a bootstrap's keyed level
        model, theta = wishart_lamn_model(self.spec), self.theta
        unforced = parametric_bootstrap(model, theta, 40, make_wald_pivot(model), 85)
        stacked = draw(model, [theta], 40, 85, [("bootstrap", 0)])
        drawn = sample_lamn_batch(self.spec, theta, 1, derive_rng(85, "bootstrap", 0, 7))[1][0]
        self.reject(monkeypatch, [drawn, stacked[7, 3:].reshape(3, 3)])  # as drawn, and as the fit reads it
        forced = model.simulate_stack([theta], derive_streams(85, [("bootstrap", 0)], 40))
        assert np.isnan(forced[7, :3]).all() and np.array_equal(forced[:, 3:], stacked[:, 3:])
        assert np.array_equal(np.delete(forced, 7, axis=0), np.delete(stacked, 7, axis=0))
        samples = parametric_bootstrap(model, theta, 40, make_wald_pivot(model), 85)
        assert unforced.n_nao == 0 and samples.to_record()["pivot_n_nao"] == 1
        assert np.array_equal(samples.values, np.delete(unforced.values, 7))

    def test_stack_of_draws_checks_shapes(self):
        # a draw of dimension 2 is not a data set of the dimension-3 model
        draw = sample_lamn(wishart_spec(), np.zeros(2), derive_rng(5))
        with pytest.raises(DataFormatError, match="expected 12 values"):
            wishart_lamn_model(self.spec).parse_data(draw)


def loop_reference(spec, thetas, fresh, m, size):
    """``size`` Wishart draws from each of m streams by the per-stream loop
    written out step by step: chi-square arrays of length ``size``, one dof at
    a time, then the stream's normals.  Each K is factored alone by the pivot
    test (:func:`pivot_factor`); one that fails it is kept, with a NaN z,
    and there is no redraw.  Returns (z, k), k as drawn, not symmetrized."""
    p, law = spec.dim, spec.curvature
    n, n_tril = m * size, p * (p - 1) // 2
    chi, normals = np.empty((m, p, size)), np.empty((m, size * (n_tril + p)))
    for s in range(m):
        rng = fresh(s)
        for d in range(p):
            chi[s, d] = rng.chisquare(law.dof - d, size)
        rng.standard_normal(out=normals[s])
    c = np.zeros((n, p, p))
    c[:, np.arange(p), np.arange(p)] = np.sqrt(chi.transpose(0, 2, 1).reshape(n, p))
    rows, cols = np.tril_indices(p, k=-1)
    c[:, rows, cols] = normals[:, : size * n_tril].reshape(n, n_tril)
    f = np.einsum("ij,njk->nik", spd_factor(law.scale), c)
    k = np.einsum("nik,njk->nij", f, f)
    ths = np.repeat(np.asarray(thetas, dtype=float), size, axis=0)
    xi = normals[:, size * n_tril :].reshape(n, p)
    return np.einsum("nij,nj->ni", k, ths) + np.einsum("nij,nj->ni", np.array([pivot_factor(one) for one in k]), xi), k


class TestDrawLoopReference:
    """The draw loop, with scalar chi-squares at size 1 and keyed streams
    re-keyed as they are iterated, equals the per-stream loop written out,
    bit for bit.  dof 1.5 at p = 2 draws a chi-square of 0.5 dof: its gamma
    shape 0.25 is below 1, where numpy's gamma sampler takes its other branch."""

    SPECS = {
        "p2-dof1.5": LamnSpec(2, WishartCurvature(1.5, np.array([[1.0, 0.4], [0.4, 2.0]]))),
        "p3-dof5": TestStackedDrawRarePaths.spec,
    }

    @staticmethod
    def level(spec, keyed):
        """40 rows, as a keyed level of 4 centres or as a caller's own generators."""
        theta = np.linspace(-1.0, 0.5, spec.dim)
        return (KeyedLevel if keyed else OwnLevel)(theta)

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "own"])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_stack_equals_the_loop(self, name, keyed):
        spec = self.SPECS[name]
        level = self.level(spec, keyed)
        z, k = loop_reference(spec, level.thetas, level.fresh, 40, 1)
        stack = sample_lamn_stack(spec, level.thetas, level.streams())
        p = spec.dim
        assert np.array_equal(stack[:, :p], z)
        assert np.array_equal(stack[:, p:], k.reshape(40, p * p))

    @pytest.mark.parametrize("size", [2, 7])
    @pytest.mark.parametrize("name", list(SPECS))
    def test_batch_equals_the_loop(self, name, size):
        spec = self.SPECS[name]
        theta = np.linspace(0.5, -1.0, spec.dim)
        z, k = loop_reference(spec, theta[None], lambda s: derive_rng(83, "batch"), 1, size)
        got_z, got_k = sample_lamn_batch(spec, theta, size, derive_rng(83, "batch"))
        assert np.array_equal(got_z, z) and np.array_equal(got_k, k)

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "own"])
    def test_rejected_stack_row_is_nao_as_in_the_loop(self, monkeypatch, keyed):
        spec = TestStackedDrawRarePaths.spec
        level = self.level(spec, keyed)
        first = sample_lamn_batch(spec, level.thetas[7], 1, level.fresh(7))[1][0]
        TestStackedDrawRarePaths.reject(monkeypatch, [first])
        z, k = loop_reference(spec, level.thetas, level.fresh, 40, 1)
        stack = sample_lamn_stack(spec, level.thetas, level.streams())
        assert np.array_equal(k[7], first) and np.flatnonzero(np.isnan(z).any(axis=1)).tolist() == [7]
        assert np.array_equal(stack[:, :3], z, equal_nan=True)
        assert np.array_equal(stack[:, 3:], k.reshape(40, 9))

    def test_rejected_batch_row_is_nao_as_in_the_loop(self, monkeypatch):
        spec, theta, size = TestStackedDrawRarePaths.spec, np.array([0.5, -1.0, 0.25]), 5
        first_z, first = sample_lamn_batch(spec, theta, size, derive_rng(84))
        TestStackedDrawRarePaths.reject(monkeypatch, [first[3]])
        z, k = loop_reference(spec, theta[None], lambda s: derive_rng(84), 1, size)
        got_z, got_k = sample_lamn_batch(spec, theta, size, derive_rng(84))
        assert np.array_equal(k, first) and np.array_equal(got_k, k)
        assert np.isnan(got_z[3]).all() and np.array_equal(np.delete(got_z, 3, axis=0), np.delete(first_z, 3, axis=0))
        assert np.array_equal(got_z, z, equal_nan=True)


class TestPivotTestDecidesNao:
    """Near dof = dim - 1 some Wishart K fail the pivot test.  In a stack or a
    batch, z is NaN exactly where that K alone fails
    :func:`~quadlik.core.cholesky_pivots`, and every other row equals the
    per-stream loop bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([2, 3]),
        dof=st.sampled_from([2.01, 2.2, 5.0]),
        rows=st.integers(1, 60),
        batch=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nan_z_exactly_where_k_fails(self, p, dof, rows, batch, seed):
        spec, theta = wishart_spec(p, dof), derive_rng(seed, "theta").standard_normal(p)
        if batch:
            z, k = sample_lamn_batch(spec, theta, rows, derive_rng(seed, "batch"))
            ref_z, ref_k = loop_reference(spec, theta[None], lambda s: derive_rng(seed, "batch"), 1, rows)
        else:
            stack = sample_lamn_stack(spec, [theta], derive_streams(seed, [("level",)], rows))
            z, k = stack[:, :p], stack[:, p:].reshape(rows, p, p)
            ref_z, ref_k = loop_reference(spec, np.tile(theta, (rows, 1)), lambda s: derive_rng(seed, "level", s), rows, 1)
        failed = np.array([spd_factor(one) is None for one in k])
        assert np.array_equal(np.isnan(z).any(axis=1), failed) and np.isnan(z[failed]).all()
        assert np.array_equal(z, ref_z, equal_nan=True) and np.array_equal(k, ref_k)

    def test_no_module_calls_lapack_cholesky(self):
        from pathlib import Path

        package = Path(quadlik.core.__file__).parent
        assert [path.name for path in sorted(package.glob("*.py")) if "linalg.cholesky" in path.read_text("utf8")] == []


class TestLamnLoglik:
    """The LAMN log likelihood ``delta.z - delta'k delta / 2`` is a quadratic form's objective."""

    def test_zero_at_zero(self):
        assert QuadraticForm(0.0, [1.0], [[1.0]]).objective()([0.0]).value == 0.0

    def test_direct_value(self):
        assert QuadraticForm(0.0, [1.0], [[1.0]]).objective()([1.0]).value == pytest.approx(0.5)

    def test_maximizer_is_solve(self):
        rng = np.random.default_rng(3)
        k = random_spd(rng, 3)
        z = rng.standard_normal(3)
        form = QuadraticForm(0.0, z, k)
        best = quadratic_mle(form)
        grid = [best + 0.1 * rng.standard_normal(3) for _ in range(50)]
        q = form.objective()
        best_val = q(best).value
        assert all(q(g).value <= best_val + 1e-12 for g in grid)

    def test_nao_propagates(self):
        assert is_nao(QuadraticForm(0.0, [1.0], [[1.0]]).objective()(NaO))


class TestContiguity:
    def test_delta_zero_exact(self):
        mean, se, n_nao = contiguity_estimate(wishart_spec(), np.zeros(2), 100, 7)
        assert mean == 1.0
        assert se == 0.0
        assert n_nao == 0

    def test_constant_k_lognormal_identity(self):
        spec = LamnSpec(1, ConstantCurvature(np.eye(1)))
        mean, se, n_nao = contiguity_estimate(spec, [1.0], 100_000, 19)
        assert abs(mean - 1.0) <= 3 * se and n_nao == 0

    def test_fewer_than_two_draws_is_nan(self):
        # as in every other check, too few replicates is an NaO check, not an error
        mean, se, n_nao = contiguity_estimate(wishart_spec(), [0.1, 0.1], 1, 7)
        assert np.isnan([mean, se]).all() and n_nao == 0

    @pytest.mark.parametrize("dof", [2.01, 2.2])
    def test_nao_draws_are_dropped_and_counted(self, dof):
        # at dof near dim - 1 some K fail the pivot test: their rows are
        # dropped from the mean and se, and counted
        spec, delta = wishart_spec(3, dof), np.array([0.3, -0.2, 0.1])
        mean, se, n_nao = contiguity_estimate(spec, delta, 1000, 3, stream=2)
        z, k = sample_lamn_batch(spec, np.zeros(3), 1000, derive_rng(3, "contiguity", 2))
        failed = np.array([spd_factor(one) is None for one in k])
        assert 0 < n_nao == failed.sum() and np.isnan(z[failed]).all() and np.isfinite(z[~failed]).all()
        w = np.exp(z @ delta - 0.5 * np.einsum("i,nij,j->n", delta, k, delta))[~failed]
        assert (mean, se) == (float(w.mean()), float(w.std(ddof=1) / np.sqrt(w.size)))

    def test_wishart_random_delta(self):
        rng = np.random.default_rng(4)
        spec = wishart_spec()
        for i in range(3):
            delta = rng.uniform(-1, 1, size=2)
            mean, se, n_nao = contiguity_estimate(spec, delta, 100_000, 23, stream=i)
            assert abs(mean - 1.0) <= 4 * se and n_nao == 0

    def test_model_contiguity_fatou_side(self):
        model = Ar1Model(20, x0=1.0)
        mean, se, n_nao = model_contiguity_estimate(model, [0.3], [0.2], 4000, 5)
        assert n_nao == 0
        assert mean <= 1.0 + 4 * se
        assert abs(mean - 1.0) <= 4 * se  # AR(1) is a genuine likelihood


class TestShiftEvaluations:
    """A shift evaluates each data set's l(psi) once, then one row per point
    inside the domain."""

    def count_rows(self, monkeypatch, model) -> list:
        rows, loglik = [], type(model).loglik

        def counted(self, stack, thetas):
            rows.append(len(stack))
            return loglik(self, stack, thetas)

        monkeypatch.setattr(type(model), "loglik", counted)
        return rows

    def test_local_shift(self, monkeypatch):
        from quadlik import ExponentialRateIid, local_shift

        model = ExponentialRateIid(6)
        data = model.simulate(np.array([1.3]), derive_rng(2))
        rows = self.count_rows(monkeypatch, model)
        q = local_shift(model, data, [1.3])
        assert sum(rows) == 1
        q.stack(np.array([[0.5], [-2.0], [0.0]]))  # the second point lies outside the domain
        assert sum(rows) == 3
        q(np.array([0.2]))
        assert sum(rows) == 4

    @pytest.mark.parametrize("delta, shifted_rows", [([0.2], 40), ([-2.0], 0)], ids=["inside", "outside"])
    def test_model_contiguity_estimate(self, monkeypatch, delta, shifted_rows):
        from quadlik import ExponentialRateIid

        model = ExponentialRateIid(6)
        rows = self.count_rows(monkeypatch, model)
        model_contiguity_estimate(model, [1.0], delta, 40, 3)
        assert sum(rows) == 40 + shifted_rows


class TestInvarianceTest:
    def test_constant_k_never_rejects(self):
        # the information is one point mass at both parameters: scipy's
        # two-sample KS test gives statistic 0 and p-value 1 for every summary
        model = lan_normal_location(np.array([[2.0, 0.4], [0.4, 1.0]]))
        report = hessian_invariance_test(model, np.zeros(2), np.ones(2), 200, 11)
        assert report.p_value == 1.0
        assert report.statistic == 0.0
        assert report.per_summary == {name: 1.0 for name in ("info_00", "info_01", "info_11", "logdet")}

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


class TestTooFewReplicates:
    """A check left with fewer than 2 usable replicates is NaO: NaN, not an error."""

    class Nowhere(LanNormalLocation):
        """A LAN model whose likelihood is NaN everywhere: every replicate is NaO."""

        def loglik(self, stack, thetas):
            value, gradient, hessian = super().loglik(stack, thetas)
            return value * np.nan, gradient, hessian

    def test_every_check_is_nan(self):
        model, theta = self.Nowhere(np.eye(2)), np.zeros(2)
        invariance = hessian_invariance_test(model, theta, theta + 1.0, 20, 0)
        normality = score_normality_test(model, theta, 20, 0)
        mean, se, n_nao = model_contiguity_estimate(model, theta, theta + 0.5, 20, 0)
        assert np.isnan([invariance.statistic, invariance.p_value, normality.statistic, normality.p_value]).all()
        assert invariance.n_summaries == normality.n_summaries == 0
        assert (invariance.n_nao, normality.n_nao) == (40, 20)
        assert np.isnan([mean, se]).all() and n_nao == 20
