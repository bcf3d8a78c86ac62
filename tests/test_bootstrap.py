
import numpy as np
import pytest
from conftest import random_spd, refit_alone
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import quadlik.bootstrap
import quadlik.inference
import quadlik.newton
import quadlik.parallel
from quadlik import (
    AnimalModel,
    AnimalParams,
    Ar1Model,
    ExponentialRateIid,
    LamnSpec,
    PivotSamples,
    WishartCurvature,
    calibrate,
    chisq_upper_quantile,
    derive_rng,
    double_bootstrap,
    fit_mle,
    is_nao,
    lan_normal_location,
    make_wald_pivot,
    parametric_bootstrap,
    relationship_matrix,
    synthetic_pedigree,
    wald_pivot,
    wishart_lamn_model,
)
from quadlik.cli import ReportRecord, _heritability_pivot, _put_pivots
from quadlik.core import LikModel, NaO, OpenBox, StackedEval, cholesky_pivots, spd_factor
from quadlik.models import LanNormalLocation, WishartLamnModel
from quadlik.parallel import draw


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
        rec = ReportRecord()
        _put_pivots(rec, "pivot", PivotSamples(np.array([1.0, 3.0]), 0, seed=5, B=2))
        assert rec.get("pivot_B") == 2
        assert rec.get("pivot_n_nao") == 0
        assert rec.get("pivot_mean") == 2.0 and rec.get("pivot_max") == 3.0


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

        def flaky_pivot(thetas, infos, theta_hats):
            # NaN on a fixed subset of the refits, and on every NaO fit
            return np.where(thetas[:, 0] > theta_hats[:, 0], np.nan, 1.0 + 0.0 * infos[:, 0, 0])

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
        assert report.inner_quantiles.shape == report.coverage.shape == (2,)
        assert report.B2 == 2

    def test_simulation_count(self):
        model, fit = lan_fixture(p=1, seed=7)
        count = {"n": 0}
        original = model.simulate_stack

        def counting(theta, rngs):
            count["n"] += len(rngs)
            return original(theta, rngs)

        model.simulate_stack = counting
        b1, b2 = 3, 4
        double_bootstrap(model, fit.theta_hat, b1, b2, make_wald_pivot(model), seed=23)
        assert count["n"] == b1 * (1 + b2)

    def test_exact_model_calibrations_cluster_at_nominal(self):
        model, fit = lan_fixture(p=2, seed=8)
        report = double_bootstrap(
            model, fit.theta_hat, 12, 600, make_wald_pivot(model), seed=29, level=0.9
        )
        nominal = chisq_upper_quantile(2, 0.1)
        quantiles = report.inner_quantiles
        assert not np.isnan(quantiles).any() and quantiles.shape == (12,)
        # the pivot is exactly chi-square here, so inner quantiles sit near nominal
        assert abs(np.median(quantiles) - nominal) / nominal < 0.15

    def test_schedule_invariance(self):
        model, fit = lan_fixture(p=1, seed=9)
        pivot = make_wald_pivot(model)
        a = double_bootstrap(model, fit.theta_hat, 4, 3, pivot, seed=31)
        b = double_bootstrap(model, fit.theta_hat, 4, 3, pivot, seed=31)
        assert np.array_equal(a.outer.values, b.outer.values)
        assert np.array_equal(a.coverage, b.coverage, equal_nan=True)


class HessianModel(LikModel):
    """Toy model whose data set is the evaluation itself: a value and a Hessian
    (gradient 0), whatever the parameter, as one row (:func:`hessian_row`).

    Its kernel hands them back as given, as the quadratic models' kernels do,
    so only the pivot's own arithmetic is under test.
    """

    def __init__(self, p):
        self.dim_param = p
        self.domain = OpenBox.unbounded(p)

    def loglik(self, stack, thetas):
        p = self.dim_param
        return stack[:, 0], np.zeros((len(stack), p)), stack[:, 1:].reshape(len(stack), p, p)


def hessian_row(value, h) -> np.ndarray:
    """A :class:`HessianModel` data set: the value, then the Hessian row-major."""
    return np.concatenate([[value], np.ravel(h)])


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
        datas.append(hessian_row(value, h))
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


def level_infos(model, datas, refits):
    """The observed informations of refits as fit_stack gives them: the negative
    Hessians of the rows' evaluations, NaN where one is NaO or fails the pivot test."""
    ev = model.stacked_objective(datas)(np.arange(len(datas)), refits)
    infos = -StackedEval.split(ev.packed, model.dim_param)[2]
    infos[~ev.ok | np.isnan(cholesky_pivots(infos)[0][:, 0, 0])] = np.nan
    return infos


def wald_alone(model, data, theta_star, theta_hat):
    """The Wald pivot row by row: its own evaluation, gated by the pivot test."""
    ev = model.objective(data)(theta_star)
    if is_nao(ev) or spd_factor(-ev.hessian) is None:
        return NaO
    return wald_pivot(theta_star, theta_hat, -ev.hessian)


class TestStackedWaldPivot:
    @settings(max_examples=300, deadline=None)
    @given(rows=pivot_rows())
    # a subnormal information, which halving in a symmetrization would round to 0
    @example(rows=(1, [np.array([0.0, -5e-324])], np.array([[0.0]]), np.array([[0.0]])))
    def test_stack_equals_the_call_bit_for_bit(self, rows):
        p, datas, refits, centers = rows
        model = HessianModel(p)
        stacked = make_wald_pivot(model)(refits, level_infos(model, datas, refits), centers)
        assert stacked.shape == (len(datas),)
        # a row's own evaluation and pivot overflow on Hessians near the float maximum
        with np.errstate(all="ignore"):
            for j, data in enumerate(datas):
                assert same_bits(stacked[j], wald_alone(model, data, refits[j], centers[j]))


def heritability_alone(model, data, theta_star, theta_hat):
    """The logit-heritability pivot row by row: its own evaluation, gated by
    the pivot test, then ``np.linalg.solve`` of the contrast."""
    ev = model.objective(data)(theta_star)
    if is_nao(ev) or spd_factor(-ev.hessian) is None:
        return NaO
    contrast = np.array([0.0, 1.0, -1.0])
    var_h = float(contrast @ np.linalg.solve(-ev.hessian, contrast))
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
        datas.append(hessian_row(value, -info))
    point = st.lists(st.floats(-100, 100), min_size=3, max_size=3)
    refits = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    centers = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    return datas, refits, centers


class TestStackedHeritabilityPivot:
    def check(self, datas, refits, centers):
        model = HessianModel(3)
        stacked = _heritability_pivot(model)(refits, level_infos(model, datas, refits), centers)
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
        datas = [hessian_row(0.0, -info) for info in infos]
        refits, centers = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(infos), np.array([0.0, 1.0, -1.0]))
        stacked = self.check(datas, refits, centers)
        assert np.isnan(stacked).tolist() == [False, False, True, False]

    def test_indefinite_row_is_nao_whatever_its_contrast_variance(self):
        # c' info^-1 c = 2 > 0 for c = (0, 1, -1), but info fails the pivot test
        rng = np.random.default_rng(4)
        infos = [random_spd(rng, 3), np.diag([-1.0, 1.0, 1.0]), random_spd(rng, 3)]
        contrast = np.array([0.0, 1.0, -1.0])
        assert contrast @ np.linalg.solve(infos[1], contrast) == 2.0
        datas = [hessian_row(0.0, -info) for info in infos]
        refits, centers = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        stacked = self.check(datas, refits, centers)
        assert np.isnan(stacked).tolist() == [False, True, False]


def double_alone(model, theta_hat, B1, B2, pivot, seed, level):
    """The double bootstrap as nested loops over explicit streams, one
    :func:`calibrate` per outer refit.

    Returns, per outer replicate, its pivot value, its inner calibrated
    quantile, its coverage indicator (1.0 or 0.0; both NaN where anything
    was NaO) and its number of finite inner pivots.
    """
    outer, quantiles, coverage, counts = [], [], [], []
    for i in range(B1):
        data = model.simulate(theta_hat, derive_rng(seed, "bootstrap", 0, i))
        theta_star, value = refit_alone(model, theta_hat, pivot, data)
        outer.append(value)
        values = []
        if not np.isnan(theta_star).any():
            for j in range(B2):
                inner_data = model.simulate(theta_star, derive_rng(seed, "bootstrap", 1, i, j))
                inner = refit_alone(model, theta_star, pivot, inner_data)[1]
                if not np.isnan(inner):
                    values.append(inner)
        quantile = np.nan
        if values:
            samples = PivotSamples(np.array(values), B2 - len(values), seed, B2)
            quantile = calibrate(samples, level, theta_hat.size).calibrated_quantile
        quantiles.append(quantile)
        coverage.append(np.nan if np.isnan(quantile) or np.isnan(value) else float(value <= quantile))
        counts.append(len(values))
    return outer, quantiles, coverage, counts


WISHART_SPEC = LamnSpec(3, WishartCurvature(5.0, np.eye(3) / 5.0))
LAN_K = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])


def wishart_model():
    return wishart_lamn_model(WISHART_SPEC)


def lan_model():
    return lan_normal_location(LAN_K)


class FailingObjective:
    """A model whose log likelihood is NaN everywhere on data sets with
    z[0] > 2, and infinite on those with z[0] < -0.3: a refit of either is
    NaO at its centre."""

    def loglik(self, stack, thetas):
        value, grad, hess = super().loglik(stack, thetas)
        z0 = np.asarray(stack)[:, 0]
        value[z0 > 2.0] = np.nan
        value[z0 < -0.3] = np.inf
        return value, grad, hess


class FailingObjectiveLan(FailingObjective, LanNormalLocation):
    pass


class FailingObjectiveWishart(FailingObjective, WishartLamnModel):
    pass


class TestDoubleBootstrapLayout:
    CASES = {"lan": (lan_model, np.array([0.3, -0.2, 0.5])), "wishart": (wishart_model, np.array([0.4, -1.0, 0.2]))}

    def check(self, model, theta_hat, pivot, seed, B1=9, B2=7, level=0.9):
        report = double_bootstrap(model, theta_hat, B1, B2, pivot, seed, level=level)
        outer, quantiles, coverage, counts = double_alone(model, theta_hat, B1, B2, pivot, seed, level)
        kept = [v for v in outer if not np.isnan(v)]
        assert report.outer.n_nao == B1 - len(kept)
        assert np.array_equal(report.outer.values, kept)
        # calibrate's quantiles bit for bit, NaN where an inner level had no finite pivot
        assert report.inner_quantiles.tobytes() == np.array(quantiles).tobytes()
        assert np.array_equal(report.coverage, coverage, equal_nan=True)
        return outer, quantiles, counts

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

    @pytest.mark.parametrize("B2", [1, 7])
    def test_animal_inner_levels_do_not_depend_on_the_blocks(self, monkeypatch, B2):
        """The animal draw forms ``Q'y`` with one product a centre, whose last
        bits depend on its row count, so every inner level is bit for bit the
        level of one centre a block (``INNER_LEVEL_ROWS`` 1), however many
        centres share its block."""
        model = AnimalModel(relationship_matrix(synthetic_pedigree(4, 5, 2, 3)))
        theta_hat = model.params_to_phi(AnimalParams(0.5, 1.2, 0.8))
        reports = []
        for rows in (1, 15, 2**10):
            monkeypatch.setattr(quadlik.bootstrap, "INNER_LEVEL_ROWS", rows)
            reports.append(double_bootstrap(model, theta_hat, 9, B2, make_wald_pivot(model), seed=63))
        alone = reports[0]
        assert np.isfinite(alone.inner_quantiles).sum() >= 5  # blocks of several inner levels
        for report in reports[1:]:
            assert report.outer.values.tobytes() == alone.outer.values.tobytes()
            assert report.inner_quantiles.tobytes() == alone.inner_quantiles.tobytes()
            assert np.array_equal(report.coverage, alone.coverage, equal_nan=True)

    @pytest.mark.parametrize("rows", [1, 15, 2**10])
    def test_one_key_pass_and_one_draw_per_lockstep_block(self, monkeypatch, rows):
        """Each lockstep block of a level, outer or inner, draws its data sets
        with one key pass and one ``simulate_stack`` call, all its centres at once."""
        monkeypatch.setattr(quadlik.bootstrap, "INNER_LEVEL_ROWS", rows)
        model, theta_hat = wishart_model(), self.CASES["wishart"][1]
        calls = {"keys": [], "draws": [], "locksteps": []}

        def counted(name, fn, size):
            def call(*args, **kwargs):
                calls[name].append(size(*args))
                return fn(*args, **kwargs)

            return call

        derive_streams, lockstep_fit = quadlik.parallel.derive_streams, quadlik.inference.lockstep_fit
        monkeypatch.setattr(quadlik.parallel, "derive_streams", counted("keys", derive_streams, lambda s, paths, n: len(paths) * n))
        monkeypatch.setattr(model, "simulate_stack", counted("draws", model.simulate_stack, lambda thetas, streams: len(streams)))
        monkeypatch.setattr(quadlik.inference, "lockstep_fit", counted("locksteps", lockstep_fit, lambda q, starts: len(starts)))
        B1, B2 = 9, 7
        report = double_bootstrap(model, theta_hat, B1, B2, make_wald_pivot(model), seed=61)
        assert report.outer.n_nao == 0  # every outer refit gets an inner level
        per_block = max(1, rows // B2)
        blocks = [B2 * min(per_block, B1 - k) for k in range(0, B1, per_block)]
        assert calls == {"keys": [B1] + blocks, "draws": [B1] + blocks, "locksteps": [B1] + blocks}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_nao_rules(self, monkeypatch, name):
        theta_hat = self.CASES[name][1]
        model = FailingObjectiveLan(LAN_K) if name == "lan" else FailingObjectiveWishart(WISHART_SPEC)
        wald = make_wald_pivot(model)

        def pivot(thetas, infos, theta_hats):
            # NaN on some converged refits
            return np.where(thetas[:, 0] < theta_hats[:, 0] - 0.6, np.nan, wald(thetas, infos, theta_hats))

        levels = []
        level = quadlik.bootstrap._bootstrap_level

        def recorded(model, centers, B, pivot, seed, paths):
            thetas, values = level(model, centers, B, pivot, seed, paths)
            assert thetas.shape == (len(centers), B, theta_hat.size) and values.shape == (len(centers), B)
            levels.extend(zip(centers, paths, thetas, values))
            return thetas, values

        monkeypatch.setattr(quadlik.bootstrap, "_bootstrap_level", recorded)
        outer, quantiles, counts = self.check(model, theta_hat, pivot, seed=61, B1=24, B2=6)
        # an outer refit that fails gives no inner quantile; an NaO outer
        # pivot after a converged refit still gets its inner level
        refit_failed = [i for i in range(24) if np.isnan(outer[i]) and np.isnan(quantiles[i])]
        pivot_failed = [i for i in range(24) if np.isnan(outer[i]) and not np.isnan(quantiles[i])]
        assert refit_failed and pivot_failed
        # the inner levels' NaO counts differ, so their quantiles come from several groups
        assert len(set(counts) - {0}) > 1, counts
        # at both levels, a replicate whose objective is NaN, or infinite, at its centre is NaO
        failed = {(level, kind): 0 for level in (0, 1) for kind in ("nan", "inf")}
        for center, path, thetas, values in levels:
            for j, (theta_star, value) in enumerate(zip(thetas, values)):
                z0 = model.simulate(center, derive_rng(61, *path, j))[0]
                if z0 > 2.0 or z0 < -0.3:
                    assert np.isnan(theta_star).all() and np.isnan(value)
                    failed[path[1], "nan" if z0 > 2.0 else "inf"] += 1
        assert all(failed.values()), failed


def recorded_steps(monkeypatch):
    """The per-row step counts of every lockstep that ``fit_stack`` runs."""
    steps = []
    lockstep_fit = quadlik.inference.lockstep_fit

    def recorded(*args, **kwargs):
        out = lockstep_fit(*args, **kwargs)
        steps.append(out[1])
        return out

    monkeypatch.setattr(quadlik.inference, "lockstep_fit", recorded)
    return steps


class TestLevelStartsAtItsCentre:
    """Every refit of a level runs Newton from the parameter its data set
    was drawn at."""

    def test_animal_level_has_no_slow_row(self, monkeypatch):
        # from the method-of-moments start, replicate 31 of this design took
        # the 100-step cap under a Hessian shift and ended NaO
        model = AnimalModel(relationship_matrix(synthetic_pedigree(40, 40, 4, 3)))
        y = model.simulate(model.params_to_phi(AnimalParams(0.0, 1.33, 0.67)), derive_rng(5))
        theta_hat = fit_mle(model, y).theta_hat
        steps = recorded_steps(monkeypatch)
        samples = parametric_bootstrap(model, theta_hat, 200, _heritability_pivot(model), 11)
        assert samples.n_nao == 0
        assert len(steps) == 1 and steps[0].size == 200
        assert steps[0].max() < quadlik.newton.DEFAULT_MAX_STEPS

    @pytest.mark.parametrize("name", sorted(TestDoubleBootstrapLayout.CASES))
    def test_quadratic_levels_take_one_step(self, monkeypatch, name):
        factory, theta_hat = TestDoubleBootstrapLayout.CASES[name]
        model = factory()
        steps = recorded_steps(monkeypatch)
        report = double_bootstrap(model, theta_hat, 12, 9, make_wald_pivot(model), 67)
        assert report.outer.n_nao == 0 and np.isfinite(report.inner_quantiles).all()
        # the outer level, then one block of every inner level
        assert [s.size for s in steps] == [12, 12 * 9]
        assert all((s == 1).all() for s in steps)

    def test_exponential_refits_lie_within_the_tolerance_of_the_mle(self):
        """Newton stops where ``|n / theta - sum x| <= tol``, ``tol = 1e-8 (1 +
        |q(centre)|)``, so ``|1 / theta* - mean| <= tol / n``; the computed
        gradient's rounding adds at most ``4 eps (1 / theta* + mean)``.  This
        bound was fixed before the first run."""
        n, centre, B, seed = 7, np.array([1.5]), 200, 71
        model = ExponentialRateIid(n)
        thetas, _ = quadlik.bootstrap._bootstrap_level(model, [centre], B, make_wald_pivot(model), seed, [("bootstrap", 0)])
        eps = np.finfo(float).eps
        for data, theta_star in zip(draw(model, [centre], B, seed, [("bootstrap", 0)]), thetas[0, :, 0]):
            tol = 1e-8 * (1.0 + abs(model.objective(data)(centre).value))
            gap = abs(1.0 / theta_star - data.mean())
            assert gap <= tol / n + 4 * eps * (1.0 / theta_star + data.mean())


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

