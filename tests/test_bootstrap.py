import math

import numpy as np
import pytest
from conftest import random_spd, refit_alone
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import quadlik.bootstrap
from quadlik import (
    Ar1Model,
    LamnSpec,
    PivotSamples,
    WishartCurvature,
    calibrate,
    chisq_upper_quantile,
    derive_rng,
    double_bootstrap,
    fit_mle,
    importance_reweight,
    is_nao,
    lan_normal_location,
    make_wald_pivot,
    parametric_bootstrap,
    wald_pivot,
    wishart_lamn_model,
)
from quadlik.cli import _heritability_pivot
from quadlik.core import LikModel, NaO, ObjectiveEval, OpenBox, StackedObjective, spd_factor
from quadlik.models import LanNormalLocation, WishartLamnModel


def lan_fixture(p=2, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, p))
    k = g @ g.T + 0.5 * np.eye(p)
    model = lan_normal_location(k)
    theta = rng.standard_normal(p)
    data = model.simulate(theta, derive_rng(seed, 99))
    fit = fit_mle(model, data)
    assert fit.converged
    return model, fit


class TestPivotSamples:
    def test_accounting_invariant(self):
        with pytest.raises(ValueError, match="NaO count"):
            PivotSamples(np.array([1.0, 2.0]), 1, seed=0, B=2)

    def test_record(self):
        rec = PivotSamples(np.array([1.0, 3.0]), 0, seed=5, B=2).to_record()
        assert rec["pivot_B"] == 2
        assert rec["pivot_n_nao"] == 0


class TestParametricBootstrap:
    def test_lan_pivots_are_chisq(self):
        model, fit = lan_fixture(p=2, seed=1)
        samples = parametric_bootstrap(
            model, fit.theta_hat, 2000, make_wald_pivot(model), seed=101
        )
        assert samples.n_nao == 0
        assert stats.kstest(samples.values, lambda x: stats.chi2.cdf(x, 2)).pvalue > 0.01

    def test_single_replicate_reproducible(self):
        model, fit = lan_fixture(p=1, seed=2)
        pivot = make_wald_pivot(model)
        a = parametric_bootstrap(model, fit.theta_hat, 1, pivot, seed=7)
        b = parametric_bootstrap(model, fit.theta_hat, 1, pivot, seed=7)
        assert a.values[0] == b.values[0]

    def test_schedule_invariance(self):
        model, fit = lan_fixture(p=2, seed=3)
        pivot = make_wald_pivot(model)
        serial = parametric_bootstrap(model, fit.theta_hat, 64, pivot, seed=11)
        threaded = parametric_bootstrap(model, fit.theta_hat, 64, pivot, seed=11)
        assert np.array_equal(serial.values, threaded.values)
        assert serial.n_nao == threaded.n_nao

    def test_nao_accounting(self):
        model, fit = lan_fixture(p=1, seed=4)

        def flaky_pivot(ev, thetas, theta_hats):
            # NaN on a fixed subset of the refits
            return np.where(thetas[:, 0] > theta_hats[:, 0], np.nan, 1.0)

        samples = parametric_bootstrap(model, fit.theta_hat, 50, flaky_pivot, seed=13)
        assert 0 < samples.n_nao < 50
        assert samples.values.size + samples.n_nao == 50
        assert np.all(samples.values == 1.0)

    def test_domain_check(self):
        model, fit = lan_fixture(p=1, seed=5)
        with pytest.raises(ValueError, match="domain"):
            parametric_bootstrap(model, np.array([np.nan]), 2, make_wald_pivot(model), 1)


class TestCalibrate:
    def test_rank_arithmetic(self):
        samples = PivotSamples(np.arange(1.0, 101.0), 0, seed=0, B=100)
        cal = calibrate(samples, 0.95, p=1)
        assert cal.calibrated_quantile == pytest.approx(95.05)

    def test_chisq_values_self_consistent(self):
        rng = derive_rng(17)
        values = rng.chisquare(3, size=20_000)
        samples = PivotSamples(values, 0, seed=0, B=values.size)
        cal = calibrate(samples, 0.95, p=3)
        assert cal.calibrated_quantile == pytest.approx(cal.nominal_quantile, rel=0.05)

    def test_monotone_in_level(self):
        samples = PivotSamples(np.arange(1.0, 101.0), 0, seed=0, B=100)
        q95 = calibrate(samples, 0.95, 1).calibrated_quantile
        q99 = calibrate(samples, 0.99, 1).calibrated_quantile
        assert q99 >= q95

    def test_all_nao_is_error(self):
        samples = PivotSamples(np.array([]), 5, seed=0, B=5)
        with pytest.raises(ValueError, match="NaO"):
            calibrate(samples, 0.95, 1)

    def test_nominal_matches_quantile_function(self):
        samples = PivotSamples(np.arange(1.0, 11.0), 0, seed=0, B=10)
        cal = calibrate(samples, 0.9, p=4)
        assert cal.nominal_quantile == chisq_upper_quantile(4, 1.0 - 0.9)


class TestDoubleBootstrap:
    def test_smoke_shape(self):
        model, fit = lan_fixture(p=1, seed=6)
        report = double_bootstrap(
            model, fit.theta_hat, 2, 2, make_wald_pivot(model), seed=19
        )
        assert report.outer.B == 2
        assert len(report.per_outer_calibrations) == 2
        assert len(report.coverage_indicators) == 2
        assert report.B2 == 2

    def test_simulation_count(self):
        model, fit = lan_fixture(p=1, seed=7)
        count = {"n": 0}
        original = model.simulate

        def counting(theta, rng):
            count["n"] += 1
            return original(theta, rng)

        model.simulate = counting
        b1, b2 = 3, 4
        double_bootstrap(model, fit.theta_hat, b1, b2, make_wald_pivot(model), seed=23)
        assert count["n"] == b1 * (1 + b2)

    def test_exact_model_calibrations_cluster_at_nominal(self):
        model, fit = lan_fixture(p=2, seed=8)
        report = double_bootstrap(
            model, fit.theta_hat, 12, 600, make_wald_pivot(model), seed=29, level=0.9
        )
        nominal = chisq_upper_quantile(2, 0.1)
        quantiles = [c.calibrated_quantile for c in report.per_outer_calibrations if c is not None]
        assert len(quantiles) == 12
        # the pivot is exactly chi-square here, so inner quantiles sit near nominal
        assert abs(np.median(quantiles) - nominal) / nominal < 0.15

    def test_schedule_invariance(self):
        model, fit = lan_fixture(p=1, seed=9)
        pivot = make_wald_pivot(model)
        a = double_bootstrap(model, fit.theta_hat, 4, 3, pivot, seed=31)
        b = double_bootstrap(model, fit.theta_hat, 4, 3, pivot, seed=31)
        assert np.array_equal(a.outer.values, b.outer.values)
        assert a.coverage_indicators == b.coverage_indicators


class HessianModel(LikModel):
    """Toy model whose data set is the evaluation itself: a value and a Hessian
    (gradient 0), whatever the parameter.

    Its stacked kernel hands them back as given, as the quadratic models'
    kernels do, so only the pivot's own arithmetic is under test.
    """

    def __init__(self, p):
        self.dim_param = p
        self.domain = OpenBox.unbounded(p)

    def eval(self, data, theta):
        value, hessian = data
        return ObjectiveEval(value, np.zeros(self.dim_param), hessian)

    def stacked_objective(self, datas):
        values = np.array([v for v, _ in datas])
        h = np.array([h for _, h in datas])

        def kernel(rows, thetas):
            return values[rows], np.zeros((len(rows), self.dim_param)), h[rows]

        return StackedObjective(self.domain, len(datas), kernel)


# moderate, near the float maximum (either sign), and NaN entries
ENTRY = st.one_of(
    st.floats(-10, 10),
    st.floats(1e306, 1.7e308),
    st.floats(-1.7e308, -1e306),
    st.just(float("nan")),
)


@st.composite
def pivot_rows(draw):
    """(p, data sets, refits, centers) for 1-6 rows of one dimension."""
    p = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    datas = []
    for _ in range(m):
        # a non-finite value makes the row NaO whatever its Hessian
        value = draw(st.sampled_from([0.0, 0.0, 0.0, float("nan"), float("-inf")]))
        if draw(st.booleans()):
            g = np.array(draw(st.lists(st.floats(-10, 10), min_size=p * p, max_size=p * p))).reshape(p, p)
            scale = draw(st.sampled_from([1.0, 1e-3, 1e305]))
            h = -(g @ g.T + np.eye(p)) * scale
        else:
            entries = draw(st.lists(ENTRY, min_size=p * (p + 1) // 2, max_size=p * (p + 1) // 2))
            h = np.zeros((p, p))
            h[np.tril_indices(p)] = entries
            h.T[np.tril_indices(p)] = entries
        datas.append((value, h))
    point = st.lists(st.floats(-100, 100), min_size=p, max_size=p)
    refits = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    centers = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    return p, datas, refits, centers


def same_bits(stacked, alone) -> bool:
    """A level pivot's value against a per-row formula's: both NaN (NaO), or
    the same bits."""
    if is_nao(alone) or np.isnan(alone):
        return bool(np.isnan(stacked))
    return np.float64(alone).tobytes() == np.float64(stacked).tobytes()


def wald_alone(model, data, theta_star, theta_hat):
    """The Wald pivot row by row: its own evaluation, gated by the pivot test."""
    ev = model.objective(data)(theta_star)
    if is_nao(ev) or spd_factor(-ev.hessian) is None:
        return NaO
    return wald_pivot(theta_star, theta_hat, -ev.hessian)


class TestStackedWaldPivot:
    @settings(max_examples=300, deadline=None)
    @given(rows=pivot_rows())
    def test_stack_equals_the_call_bit_for_bit(self, rows):
        p, datas, refits, centers = rows
        model = HessianModel(p)
        ev = model.stacked_objective(datas)(np.arange(len(datas)), refits)
        stacked = make_wald_pivot(model)(ev, refits, centers)
        assert stacked.shape == (len(datas),)
        # the row's own pivot test warns on Hessians near the float maximum
        with np.errstate(all="ignore"):
            for j, data in enumerate(datas):
                assert same_bits(stacked[j], wald_alone(model, data, refits[j], centers[j]))


def heritability_alone(model, data, theta_star, theta_hat):
    """The logit-heritability pivot row by row: its own evaluation, then
    ``np.linalg.solve`` of the contrast."""
    ev = model.objective(data)(theta_star)
    if is_nao(ev):
        return NaO
    contrast = np.array([0.0, 1.0, -1.0])
    try:
        cov_c = np.linalg.solve(-ev.hessian, contrast)
    except np.linalg.LinAlgError:
        return NaO
    var_h = float(contrast @ cov_c)
    if not var_h > 0:
        return NaO
    diff = float(theta_star[1] - theta_star[2]) - float(theta_hat[1] - theta_hat[2])
    return diff * diff / var_h


@st.composite
def heritability_rows(draw):
    """(data sets, refits, centers) for 1-6 rows of dimension 3, mixing SPD,
    indefinite, exactly singular and NaO rows."""
    m = draw(st.integers(1, 6))
    datas = []
    for _ in range(m):
        value = draw(st.sampled_from([0.0, 0.0, 0.0, float("nan")]))
        g = np.array(draw(st.lists(st.floats(-10, 10), min_size=9, max_size=9))).reshape(3, 3)
        info = g @ g.T + draw(st.sampled_from([1e-3, 1.0])) * np.eye(3)
        kind = draw(st.sampled_from(["spd", "negative", "indefinite", "singular", "nan", "inf"]))
        if kind == "negative":
            info = -info
        elif kind == "indefinite":
            info[2, 2] = -abs(info[2, 2]) - draw(st.floats(0.0, 100.0))
        elif kind == "singular":
            # a zero row and column: LAPACK meets an exactly zero pivot
            k = draw(st.integers(0, 2))
            info[k, :] = info[:, k] = 0.0
        elif kind != "spd":
            k = draw(st.integers(0, 2))
            info[k, :] = info[:, k] = float(kind)
        datas.append((value, -info))
    point = st.lists(st.floats(-100, 100), min_size=3, max_size=3)
    refits = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    centers = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    return datas, refits, centers


class TestStackedHeritabilityPivot:
    def check(self, datas, refits, centers):
        model = HessianModel(3)
        ev = model.stacked_objective(datas)(np.arange(len(datas)), refits)
        stacked = _heritability_pivot(model)(ev, refits, centers)
        assert stacked.shape == (len(datas),)
        with np.errstate(all="ignore"):
            for j, data in enumerate(datas):
                assert same_bits(stacked[j], heritability_alone(model, data, refits[j], centers[j]))
        return stacked

    @settings(max_examples=300, deadline=None)
    @given(rows=heritability_rows())
    def test_level_equals_each_row_bit_for_bit(self, rows):
        self.check(*rows)

    def test_one_singular_row_among_good_rows(self):
        rng = np.random.default_rng(3)
        infos = [random_spd(rng, 3) for _ in range(4)]
        infos[2][1, :] = infos[2][:, 1] = 0.0
        datas = [(0.0, -info) for info in infos]
        refits, centers = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(infos), np.array([0.0, 1.0, -1.0]))
        stacked = self.check(datas, refits, centers)
        assert np.isnan(stacked).tolist() == [False, False, True, False]


def double_alone(model, theta_hat, B1, B2, pivot, seed, level):
    """The double bootstrap as nested loops over explicit streams."""
    outer, calibrations, indicators = [], [], []
    for i in range(B1):
        data = model.simulate(theta_hat, derive_rng(seed, "bootstrap", 0, i))
        theta_star, value = refit_alone(model, theta_hat, pivot, data)
        outer.append(value)
        cal = None
        if not is_nao(theta_star):
            inner = []
            for j in range(B2):
                inner_data = model.simulate(theta_star, derive_rng(seed, "bootstrap", 1, i, j))
                inner.append(refit_alone(model, theta_star, pivot, inner_data)[1])
            values = [v for v in inner if not is_nao(v)]
            if values:
                cal = calibrate(PivotSamples(np.array(values), B2 - len(values), seed, B2), level, theta_hat.size)
        calibrations.append(cal)
        indicators.append(None if cal is None or is_nao(value) else int(value <= cal.calibrated_quantile))
    return outer, calibrations, indicators


WISHART_SPEC = LamnSpec(3, WishartCurvature(5.0, np.eye(3) / 5.0))
LAN_K = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])


def wishart_model():
    return wishart_lamn_model(WISHART_SPEC)


def lan_model():
    return lan_normal_location(LAN_K)


def first_coordinate(data):
    """z[0] of a data set or of a row of its model's data stack."""
    return float(data.z[0]) if hasattr(data, "z") else float(data[0])


class FailingStart:
    """A model whose start raises on data sets with z[0] > 2 and is not
    finite on those with z[0] < -0.3."""

    def start(self, data):
        if first_coordinate(data) > 2.0:
            raise ValueError("no start for this data set")
        if first_coordinate(data) < -0.3:
            return np.full(self.dim_param, np.inf)
        return super().start(data)


class FailingStartLan(FailingStart, LanNormalLocation):
    pass


class FailingStartWishart(FailingStart, WishartLamnModel):
    pass


class TestDoubleBootstrapLayout:
    CASES = {"lan": (lan_model, np.array([0.3, -0.2, 0.5])), "wishart": (wishart_model, np.array([0.4, -1.0, 0.2]))}

    def check(self, model, theta_hat, pivot, seed, B1=9, B2=7, level=0.9):
        report = double_bootstrap(model, theta_hat, B1, B2, pivot, seed, level=level)
        outer, calibrations, indicators = double_alone(model, theta_hat, B1, B2, pivot, seed, level)
        kept = [v for v in outer if not is_nao(v)]
        assert report.outer.n_nao == B1 - len(kept)
        assert np.array_equal(report.outer.values, kept)
        assert [c is None for c in report.per_outer_calibrations] == [c is None for c in calibrations]
        for got, want in zip(report.per_outer_calibrations, calibrations):
            if want is not None:
                assert got.calibrated_quantile == want.calibrated_quantile
                assert got.nominal_quantile == want.nominal_quantile
        assert report.coverage_indicators == indicators
        return outer, calibrations

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_levels_equal_nested_loops(self, name):
        factory, theta_hat = self.CASES[name]
        model = factory()
        self.check(model, theta_hat, make_wald_pivot(model), seed=57)

    @pytest.mark.parametrize("rows", [1, 15])
    def test_inner_blocks_equal_nested_loops(self, monkeypatch, rows):
        # one outer refit per block, then two: B2 = 7
        monkeypatch.setattr(quadlik.bootstrap, "INNER_LEVEL_ROWS", rows)
        model = wishart_model()
        self.check(model, self.CASES["wishart"][1], make_wald_pivot(model), seed=59)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_nao_rules(self, monkeypatch, name):
        theta_hat = self.CASES[name][1]
        model = FailingStartLan(LAN_K) if name == "lan" else FailingStartWishart(WISHART_SPEC)
        wald = make_wald_pivot(model)

        def pivot(ev, thetas, theta_hats):
            # NaN on some converged refits
            return np.where(thetas[:, 0] < theta_hats[:, 0] - 0.6, np.nan, wald(ev, thetas, theta_hats))

        levels = []
        level = quadlik.bootstrap._bootstrap_level

        def recorded(model, centers, B, pivot, seed, paths):
            pairs = level(model, centers, B, pivot, seed, paths)
            levels.extend(zip(centers, paths, pairs))
            return pairs

        monkeypatch.setattr(quadlik.bootstrap, "_bootstrap_level", recorded)
        outer, calibrations = self.check(model, theta_hat, pivot, seed=61, B1=24, B2=6)
        # an outer refit that fails gives None; an NaO outer pivot after a
        # converged refit still gets its inner level
        refit_failed = [i for i in range(24) if is_nao(outer[i]) and calibrations[i] is None]
        pivot_failed = [i for i in range(24) if is_nao(outer[i]) and calibrations[i] is not None]
        assert refit_failed and pivot_failed
        # at both levels, a replicate whose start raises or is not finite is NaO
        failed = {(level, kind): 0 for level in (0, 1) for kind in ("raises", "inf")}
        for center, path, pairs in levels:
            for j, pair in enumerate(pairs):
                z0 = first_coordinate(model.simulate(center, derive_rng(61, *path, j)))
                if z0 > 2.0 or z0 < -0.3:
                    assert is_nao(pair[0]) and is_nao(pair[1])
                    failed[path[1], "raises" if z0 > 2.0 else "inf"] += 1
        assert all(failed.values()), failed


class TestCalibrationStudies:
    def test_lan_calibrated_quantile_near_nominal(self):
        # the pivot is exactly chi-square here, so calibration is a no-op up
        # to Monte Carlo error in the empirical quantile
        model, fit = lan_fixture(p=2, seed=10)
        samples = parametric_bootstrap(
            model, fit.theta_hat, 5000, make_wald_pivot(model), seed=43
        )
        cal = calibrate(samples, 0.95, 2)
        assert abs(cal.calibrated_quantile - cal.nominal_quantile) / cal.nominal_quantile < 0.05

    def test_ar1_small_n_calibration_improves_coverage(self):
        # double Monte Carlo loop: at n=5 the squared studentized error is
        # lighter-tailed than chi-square(1), the calibrated quantile sits
        # well under 3.84, and using it moves coverage toward the level
        model = Ar1Model(5, x0=1.0)
        theta0 = np.array([0.3])
        kappa_nominal = chisq_upper_quantile(1, 0.05)
        pivot = make_wald_pivot(model)
        wald = cal = used = 0
        kappas = []
        for rep in range(300):
            data = model.simulate(theta0, derive_rng(613, rep))
            fit = fit_mle(model, data)
            if not fit.converged:
                continue
            t0_sq = float(fit.theta_hat[0] - theta0[0]) ** 2 * float(fit.observed_info[0, 0])
            samples = parametric_bootstrap(
                model, fit.theta_hat, 200, pivot, seed=614_000 + rep
            )
            kap = calibrate(samples, 0.95, 1).calibrated_quantile
            kappas.append(kap)
            wald += int(t0_sq < kappa_nominal)
            cal += int(t0_sq < kap)
            used += 1
        assert used == 300
        assert np.mean(kappas) < 3.6  # calibrated quantile clearly below nominal
        wald_rate, cal_rate = wald / used, cal / used
        assert abs(cal_rate - 0.95) <= abs(wald_rate - 0.95)


class TestImportanceReweight:
    def test_zero_logratio_is_plain_mean_exactly(self):
        rng = derive_rng(53)
        g = rng.standard_normal(101)
        assert importance_reweight(g, np.zeros_like(g)) == float(g.mean())

    def test_unit_g_integrates_to_one(self):
        rng = derive_rng(37)
        x = rng.standard_normal(100_000)
        delta = 0.7
        logratio = delta * x - delta * delta / 2.0
        w = np.exp(logratio)
        estimate = importance_reweight(np.ones_like(x), logratio)
        se = w.std(ddof=1) / np.sqrt(x.size)
        assert abs(estimate - 1.0) <= 4 * se

    def test_indicator_against_normal_overlap_oracle(self):
        # target: P_{delta}(X <= c) = Phi(c - delta), computed in closed form
        rng = derive_rng(41)
        x = rng.standard_normal(200_000)
        delta, c = 0.5, 0.25
        g = (x <= c).astype(float)
        logratio = delta * x - delta * delta / 2.0
        estimate = importance_reweight(g, logratio)
        truth = 0.5 * (1.0 + math.erf((c - delta) / math.sqrt(2.0)))
        se = (g * np.exp(logratio)).std(ddof=1) / np.sqrt(x.size)
        assert abs(estimate - truth) <= 4 * se

    def test_nonfinite_raises_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            importance_reweight([1.0, 1.0], [0.0, 1e9])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            importance_reweight([1.0], [0.0, 0.0])
