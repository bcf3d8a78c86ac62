import warnings

import numpy as np
import pytest
from conftest import random_spd
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlik import (
    AnimalModel,
    AnimalParams,
    Ar1Model,
    ExponentialRateIid,
    GridBox,
    LamnSpec,
    NestedBoxes,
    NonFiniteEvaluationError,
    NormalLocationIid,
    QuadraticForm,
    WishartCurvature,
    c2_distance,
    derive_rng,
    lan_normal_location,
    local_shift,
    quadratic_fit_at,
    quadraticity_report,
    relationship_matrix,
    rudin_distance,
    rudin_tail_bound,
    sup_norm_on_box,
    synthetic_pedigree,
    wishart_lamn_model,
)
from quadlik.core import NaO, StackedEval, shifted_stack
from quadlik.funcspace import _on_points


def quartic(delta):
    # q(d) = -d^4/4 with analytic derivatives, one-dimensional
    from quadlik import ObjectiveEval

    d = float(np.atleast_1d(delta)[0])
    return ObjectiveEval(-(d**4) / 4.0, np.array([-(d**3)]), np.array([[-3.0 * d * d]]))


class TestGridBox:
    def test_endpoints_included(self):
        box = GridBox([-1.0], [1.0], [5])
        axis = box.axes()[0]
        assert axis[0] == -1.0 and axis[-1] == 1.0

    def test_points_shape(self):
        box = GridBox([-1.0, 0.0], [1.0, 2.0], [3, 4])
        assert box.points().shape == (12, 2)
        assert box.total_points == 12

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            GridBox([1.0], [0.0], [3])

    def test_default_resolution(self):
        assert GridBox.default([-1.0], [1.0]).points_per_axis[0] == 33
        assert GridBox.default([-1.0] * 3, [1.0] * 3).points_per_axis[0] == 9
        with pytest.raises(ValueError, match="dimension"):
            GridBox.default([-1.0] * 4, [1.0] * 4)


class TestNestedBoxes:
    def test_shrinking_is_nested(self):
        nested = NestedBoxes.shrinking(GridBox([-2.0], [4.0], [5]), 8)
        assert len(nested) == 8
        assert np.array_equal(nested.boxes[-1].lower, [-2.0])
        assert np.array_equal(nested.boxes[-1].upper, [4.0])

    def test_last_box_is_the_box(self):
        box = GridBox([-2.0, 0.1], [4.0, 0.3], [5, 3])
        assert NestedBoxes.shrinking(box, 8).boxes[-1] is box

    def test_rejects_non_nested(self):
        small = GridBox([-1.0], [1.0], [3])
        big = GridBox([-2.0], [2.0], [3])
        with pytest.raises(ValueError, match="increasing"):
            NestedBoxes((big, small))


class TestSupNorm:
    def test_identical_functions(self):
        box = GridBox([-1.0], [1.0], [101])
        f = lambda x: float(x[0]) ** 2
        assert sup_norm_on_box(f, f, box) == 0.0

    def test_square_on_unit_interval(self):
        box = GridBox([-1.0], [1.0], [101])
        assert sup_norm_on_box(lambda x: float(x[0]) ** 2, lambda x: 0.0, box) == 1.0

    def test_sine_grid_bound(self):
        box = GridBox([0.0], [3.0], [301])
        d = sup_norm_on_box(lambda x: np.sin(float(x[0])), lambda x: 0.0, box)
        assert 0.9999 <= d <= 1.0
        # dense-grid oracle: refinement approaches the analytic sup of 1
        dense = GridBox([0.0], [3.0], [30001])
        d_dense = sup_norm_on_box(lambda x: np.sin(float(x[0])), lambda x: 0.0, dense)
        assert d <= d_dense <= 1.0

    def test_monotone_under_nested_refinement(self):
        # midpoint refinement (m -> 2m - 1) keeps every old grid point, so
        # the grid maximum can only grow toward the true sup
        rng = np.random.default_rng(3)
        f = lambda x: np.sin(3.0 * float(x[0])) + 0.3 * float(x[0]) ** 3
        g = lambda x: 0.1 * float(x[0])
        for _ in range(10):
            m = int(rng.integers(2, 40))
            coarse = sup_norm_on_box(f, g, GridBox([-2.0], [2.0], [m]))
            nested = sup_norm_on_box(f, g, GridBox([-2.0], [2.0], [2 * m - 1]))
            assert nested >= coarse

    def test_error_carries_point(self):
        box = GridBox([0.0], [2.0], [3])
        f = lambda x: np.inf if float(x[0]) > 1.5 else 0.0
        with pytest.raises(NonFiniteEvaluationError) as err:
            sup_norm_on_box(f, lambda x: 0.0, box)
        assert err.value.point == pytest.approx([2.0])


class TestRudinDistance:
    def test_identical(self):
        nested = NestedBoxes.shrinking(GridBox([-1.0], [1.0], [9]), 4)
        assert rudin_distance(lambda x: 1.0, lambda x: 1.0, nested) == 0.0

    def test_constant_difference(self):
        nested = NestedBoxes.shrinking(GridBox([-1.0], [1.0], [9]), 8)
        d = rudin_distance(lambda x: 1.0, lambda x: 0.0, nested)
        assert d == pytest.approx(0.25)

    def test_bounded_by_half(self):
        nested = NestedBoxes.shrinking(GridBox([-1.0], [1.0], [9]), 8)
        d = rudin_distance(lambda x: 1e12, lambda x: 0.0, nested)
        assert d <= 0.5

    def test_tail_bound(self):
        nested = NestedBoxes.shrinking(GridBox([-1.0], [1.0], [3]), 8)
        assert rudin_tail_bound(nested) == 2.0**-9

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(21)
        nested = NestedBoxes.shrinking(GridBox([-1.0], [1.0], [7]), 5)

        def random_fn():
            a, b, c = rng.standard_normal(3)
            return lambda x: a + b * float(x[0]) + c * np.sin(float(x[0]))

        for _ in range(50):
            f, g, h = random_fn(), random_fn(), random_fn()
            dfg = rudin_distance(f, g, nested)
            dgf = rudin_distance(g, f, nested)
            assert dfg == dgf  # symmetry, exact
            dfh = rudin_distance(f, h, nested)
            dhg = rudin_distance(h, g, nested)
            assert dfg <= dfh + dhg + 1e-12  # triangle inequality
            assert rudin_distance(f, f, nested) == 0.0

    def test_zero_iff_grid_equal(self):
        nested = NestedBoxes.shrinking(GridBox([-1.0], [1.0], [7]), 5)
        f = lambda x: float(x[0])
        g = lambda x: float(x[0]) + 1e-9
        assert rudin_distance(f, g, nested) > 0.0


class TestC2Distance:
    def test_identical(self):
        q = QuadraticForm(1.0, [0.5], [[2.0]]).objective()
        box = GridBox([-1.0], [1.0], [9])
        assert c2_distance(q, q, box) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        k = random_spd(np.random.default_rng(0), 2)
        qa = QuadraticForm(1.0, [0.5, -0.5], k).objective()
        qb = QuadraticForm(2.0, [0.5, -0.5], k).objective()
        box = GridBox([-1.0, -1.0], [1.0, 1.0], [5, 5])
        d0, d1, d2 = c2_distance(qa, qb, box)
        assert d0 == pytest.approx(1.0)
        assert d1 == 0.0
        assert d2 == 0.0

    def test_curvature_difference(self):
        rng = np.random.default_rng(4)
        k = random_spd(rng, 2)
        delta = np.array([[0.3, 0.1], [0.1, -0.2]])
        qa = QuadraticForm(0.0, [1.0, -1.0], k).objective()
        qb = QuadraticForm(0.0, [1.0, -1.0], k + delta).objective()
        box = GridBox([-2.0, -2.0], [2.0, 2.0], [5, 5])
        _, _, d2 = c2_distance(qa, qb, box)
        assert d2 == pytest.approx(np.max(np.abs(delta)))


class TestQuadraticFit:
    def test_quadratic_is_its_own_fit(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = int(rng.integers(1, 4))
            q = QuadraticForm(rng.standard_normal(), rng.standard_normal(p), random_spd(rng, p))
            anchor = rng.standard_normal(p)
            fit = quadratic_fit_at(q.objective(), anchor)
            assert abs(fit.u - q.u) < 1e-10
            assert np.allclose(fit.z, q.z, atol=1e-10)
            assert np.allclose(fit.k, q.k, atol=1e-10)

    def test_quartic_at_zero(self):
        fit = quadratic_fit_at(quartic, [0.0])
        assert fit.u == 0.0
        assert np.allclose(fit.z, [0.0])
        assert np.allclose(fit.k, [[0.0]])

    def test_quartic_at_one(self):
        # symbolic oracle: q(1) = -1/4, q'(1) = -1, q''(1) = -3
        # k = 3, z = -1 + 3 = 2, u = -1/4 - 2 + 3/2 = -3/4
        fit = quadratic_fit_at(quartic, [1.0])
        assert np.allclose(fit.k, [[3.0]])
        assert np.allclose(fit.z, [2.0])
        assert fit.u == pytest.approx(-0.75)


class TestQuadraticityReport:
    def test_exact_quadratic_is_flat(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            q = QuadraticForm(rng.standard_normal(), rng.standard_normal(2), random_spd(rng, 2))
            anchor = rng.standard_normal(2)
            box = GridBox([-2.0, -2.0], [2.0, 2.0], [7, 7])
            report = quadraticity_report(q.objective(), anchor, box)
            assert report.d0 < 1e-9
            assert report.d1 < 1e-9
            assert report.d2 < 1e-9
            assert report.rudin < 1e-9

    def test_quartic_reports_curvature_gap(self):
        box = GridBox([-1.0], [1.0], [21])
        report = quadraticity_report(quartic, [0.0], box)
        # fit at 0 is identically zero; sup of d^4/4 on [-1,1] is 1/4
        assert report.d0 == pytest.approx(0.25)
        assert report.d2 == pytest.approx(3.0)

    def test_evaluates_the_c2_grid_once(self):
        # the 8th Rudin box is the C2 box, whose value sup norm is d0: q is
        # evaluated at its anchor, on the C2 grid and on the 7 smaller boxes
        model, psi = SHIFT_CASES["animal"]
        q = local_shift(model, model.simulate(psi, derive_rng(4)), psi, tau=1.0)
        box = GridBox(-np.ones(3), np.ones(3), [9, 9, 9])
        counted = _Counted(q)
        report = quadraticity_report(counted, np.zeros(3), box)
        assert counted.points == 1 + 8 * 729
        # the value the eight-box formula gives, each box scaled about the centre
        fit = quadratic_fit_at(q, np.zeros(3)).objective()
        eight = NestedBoxes(tuple(box.scaled_about_center(n / 8) for n in range(1, 9)))
        assert report.rudin == rudin_distance(q, fit, eight) > 0.0
        assert report.d0 == sup_norm_on_box(q, fit, box)

    def test_record_round_trip(self):
        box = GridBox([-1.0], [1.0], [5])
        rec = quadraticity_report(quartic, [0.0], box).to_record()
        assert rec["quadraticity_points_per_axis"] == [5]
        assert rec["quadraticity_rudin_tail_bound"] == 2.0**-9


class TestGridBoxOverflow:
    def test_rejects_overflowing_width_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                GridBox([-1e308, -1.0], [1e308, 1.0], [3, 3])
            # the widest box that still fits is accepted
            GridBox([-8e307], [8e307], [3])


def _assert_same_rows(kind, stacked, looped, base_values):
    """The rows of two evaluations agree: bit for bit, except on the animal
    model, whose rows agree to 1e-12 of the terms each entry is built from
    (a value is ``l(psi + delta/tau) - l(psi)``, so ``base_values`` holds
    each row's ``l(psi)``)."""
    assert np.array_equal(stacked.ok, looped.ok)
    a, b = stacked.packed[stacked.ok], looped.packed[looped.ok]
    if kind == "animal":
        size = np.abs(b) + np.abs(base_values[stacked.ok, None]) * (np.arange(b.shape[1]) == 0)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(size, np.abs(b).max(axis=1, keepdims=True)))
    else:
        assert np.array_equal(a, b)
    assert np.isnan(stacked.packed[~stacked.ok]).all()


class _Counted:
    """An objective that counts the points it is evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, x):
        self.points += 1
        return self.f(x)

    def stack(self, points):
        self.points += len(points)
        return self.f.stack(points)


def _looped(f):
    """``f`` without its stacked evaluation: evaluated point by point."""
    return lambda x: f(x)


def _shift_cases():
    """(model, psi) for every model family."""
    ped = synthetic_pedigree(6, 9, 2, 17)
    animal = AnimalModel(relationship_matrix(ped))
    wishart = wishart_lamn_model(LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0)))
    return {
        "lan": (lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]])), np.array([0.3, -0.2])),
        "wishart": (wishart, np.array([0.4, 0.1])),
        "ar1": (Ar1Model(12, x0=1.0), np.array([0.5])),
        "iid_normal": (NormalLocationIid(2, 7), np.array([0.1, -0.4])),
        "iid_exponential": (ExponentialRateIid(6), np.array([1.3])),
        "animal": (animal, AnimalModel.params_to_phi(AnimalParams(0.5, 1.2, 0.8))),
    }


SHIFT_CASES = _shift_cases()


class TestStackedEvaluation:
    """A stacked evaluation gives, row by row, what the point-by-point loop gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(SHIFT_CASES)),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 30),
        tau=st.floats(0.2, 5.0),
        scale=st.floats(0.01, 4.0),
    )
    def test_shifted_rows_match_the_loop(self, kind, seed, m, tau, scale):
        model, psi = SHIFT_CASES[kind]
        data = model.simulate(psi, derive_rng(seed))
        q = local_shift(model, data, psi, tau=tau)
        rng = np.random.default_rng(seed)
        deltas = scale * rng.standard_normal((m, psi.size))
        deltas[0] = 0.0
        if m > 1:
            deltas[1, -1] = -4.0 * tau * psi[-1] - 1e4 * tau  # outside the exponential and animal domains
        stacked, looped = q.stack(deltas), _on_points(_looped(q), deltas)
        assert stacked.ok[0] and stacked.packed[0, 0] == 0.0
        _assert_same_rows(kind, stacked, looped, np.full(m, model.objective(data)(psi).value))

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(SHIFT_CASES)),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 12),
        tau=st.floats(0.2, 5.0),
        scale=st.floats(0.01, 4.0),
    )
    def test_shift_stack_rows_match_local_shift(self, kind, seed, m, tau, scale):
        # row j of the stacked shift at deltas[j] is local_shift of data set j alone
        model, psi = SHIFT_CASES[kind]
        datas = [model.simulate(psi, derive_rng(seed, j)) for j in range(m)]
        rng = np.random.default_rng(seed)
        deltas = scale * rng.standard_normal((m, psi.size))
        deltas[0] = 0.0
        if m > 1:
            deltas[1, -1] = -4.0 * tau * psi[-1] - 1e4 * tau  # outside the exponential and animal domains
        shifted, base_ok = shifted_stack(model, datas, psi, tau)
        stacked = shifted(np.arange(m), deltas)
        alone = [local_shift(model, data, psi, tau=tau).stack(delta[None]) for data, delta in zip(datas, deltas)]
        looped = StackedEval(np.concatenate([ev.packed for ev in alone]), np.concatenate([ev.ok for ev in alone]))
        assert base_ok.all() and stacked.ok[0] and stacked.packed[0, 0] == 0.0
        _assert_same_rows(kind, stacked, looped, np.array([model.objective(data)(psi).value for data in datas]))

    @pytest.mark.parametrize("kind", sorted(SHIFT_CASES))
    def test_row_nao_at_psi_is_nao_everywhere(self, kind):
        # data set 1 has no finite l(psi): its row is NaO at every delta, and
        # the other rows are what they are beside a finite data set
        model, psi = SHIFT_CASES[kind]
        datas = np.array([model.simulate(psi, derive_rng(7, j)) for j in range(3)])
        broken = datas.copy()
        broken[1] = np.nan
        deltas = np.repeat([np.zeros(psi.size), np.full(psi.size, 0.1), np.full(psi.size, -0.2)], 3, axis=0)
        rows = np.tile(np.arange(3), 3)
        shifted, base_ok = shifted_stack(model, broken, psi)
        ev, clean = shifted(rows, deltas), shifted_stack(model, datas, psi)[0](rows, deltas)
        assert base_ok.tolist() == [True, False, True]
        assert ev.ok.tolist() == [True, False, True] * 3 and clean.ok.all()
        assert np.array_equal(ev.packed[rows != 1], clean.packed[rows != 1])

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 20))
    def test_quadratic_rows_match_the_loop(self, p, seed, m):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((p, p))
        q = QuadraticForm(rng.standard_normal(), rng.standard_normal(p), g + g.T).objective()
        points = 3.0 * rng.standard_normal((m, p))
        stacked, looped = q.stack(points), _on_points(_looped(q), points)
        assert stacked.ok.all() and looped.ok.all()
        assert np.array_equal(stacked.packed, looped.packed)

    def test_distances_match_the_loop(self):
        model, psi = SHIFT_CASES["animal"]
        q = local_shift(model, model.simulate(psi, derive_rng(3)), psi, tau=2.0)
        fit = quadratic_fit_at(q, np.zeros(3)).objective()
        box = GridBox([-1.0] * 3, [1.0] * 3, [4, 3, 5])
        assert c2_distance(q, fit, box) == c2_distance(_looped(q), _looped(fit), box)
        nested = NestedBoxes.shrinking(box, 3)
        stacked = rudin_distance(q, fit, nested)
        looped = rudin_distance(_looped(q), _looped(fit), nested)
        assert stacked == looped

    @pytest.mark.parametrize("looped", [False, True], ids=["stacked", "looped"])
    def test_nao_point_matches_the_loop(self, looped):
        # with log tau2 + delta_2 near 500 the Hessian overflows: NaO from delta_2 = 500 on
        model, psi = SHIFT_CASES["animal"]
        q = local_shift(model, model.simulate(psi, derive_rng(5)), psi)
        fit = quadratic_fit_at(q, np.zeros(3)).objective()
        f = _looped(q) if looped else q
        box = GridBox([-1.0, -1.0, 0.0], [1.0, 1.0, 2000.0], [2, 2, 5])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteEvaluationError, match="NaO or non-finite") as err:
                c2_distance(fit, f, box)
            assert err.value.point.tolist() == [-1.0, -1.0, 500.0]
            with pytest.raises(NonFiniteEvaluationError, match="NaO evaluation") as err:
                sup_norm_on_box(f, fit, box)
            assert err.value.point.tolist() == [-1.0, -1.0, 500.0]

    def test_first_failing_point_in_grid_order_f_before_g(self):
        box = GridBox([0.0], [4.0], [5])
        f_nao_from_2 = lambda x: NaO if x[0] >= 2.0 else 0.0
        g_inf_from_1 = lambda x: np.inf if x[0] >= 1.0 else 0.0
        g_inf_from_2 = lambda x: np.inf if x[0] >= 2.0 else 0.0
        with pytest.raises(NonFiniteEvaluationError, match="non-finite evaluation") as err:
            sup_norm_on_box(f_nao_from_2, g_inf_from_1, box)
        assert err.value.point.tolist() == [1.0]
        with pytest.raises(NonFiniteEvaluationError, match="NaO evaluation") as err:
            sup_norm_on_box(f_nao_from_2, g_inf_from_2, box)
        assert err.value.point.tolist() == [2.0]


class TestQuadraticFormRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(
        p=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        definite=st.booleans(),
        scale=st.floats(1e-3, 1e3),
    )
    def test_fit_recovers_the_form(self, p, seed, definite, scale):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((p, p))
        k = scale * (random_spd(rng, p) if definite else g + g.T)
        u, z = scale * rng.standard_normal(), scale * rng.standard_normal(p)
        anchor = 3.0 * rng.standard_normal(p)
        fit = quadratic_fit_at(QuadraticForm(u, z, k).objective(), anchor)
        # tolerances relative to the size of the terms each coefficient is built from
        a = np.abs(anchor)
        z_terms = np.abs(z) + np.abs(k) @ a
        u_terms = abs(u) + np.abs(z) @ a + a @ np.abs(k) @ a
        assert np.array_equal(fit.k, QuadraticForm(u, z, k).k)
        assert np.all(np.abs(fit.z - z) <= 1e-12 * z_terms)
        assert abs(fit.u - u) <= 1e-12 * u_terms

    def test_nao_passes_through(self):
        form = QuadraticForm(1.0, [0.5, -0.5], [[2.0, 0.0], [0.0, 1.0]])
        assert form.objective()(NaO) is NaO
        model, psi = SHIFT_CASES["iid_exponential"]
        q = local_shift(model, model.simulate(psi, derive_rng(2)), psi)
        assert q(NaO) is NaO
        points = np.array([[0.5], [-2.0], [0.0]])
        ev = q.stack(points)
        assert ev.ok.tolist() == [True, False, True]
        assert np.isnan(ev.packed[1]).all()
