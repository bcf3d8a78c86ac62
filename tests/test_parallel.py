"""Replicate draws, the Monte Carlo checks' NaO accounting, and the stream layout."""

import warnings

import numpy as np
import pytest
from conftest import pivot_alone
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from quadlik import (
    AnimalModel,
    Ar1Model,
    ConstantCurvature,
    ExponentialRateIid,
    LamnSpec,
    NormalLocationIid,
    WishartCurvature,
    derive_rng,
    hessian_invariance_test,
    lan_normal_location,
    make_wald_pivot,
    model_contiguity_estimate,
    parametric_bootstrap,
    relationship_matrix,
    score_normality_test,
    symmetric_sqrt,
    synthetic_pedigree,
    wishart_lamn_model,
)
from quadlik.core import LikModel, OpenBox, _centres, quadratic_stack
from quadlik.newton import safeguarded_maximize
from quadlik.parallel import draw


class MaskedModel(LikModel):
    """A one-parameter LAMN model, curvature ``k`` chi-square(3), whose data
    set i carries ``mask[i]`` as a flag: its log likelihood is NaN, so it is
    NaO, where the flag is set."""

    dim_param = 1
    domain = OpenBox.unbounded(1)

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=float)

    def loglik(self, stack, thetas):
        value, gradient, hessian = quadratic_stack(0.0, stack[:, :1], stack[:, 1:2, None], thetas)
        return np.where(stack[:, 2] == 0.0, value, np.nan), gradient, hessian

    def simulate_stack(self, centers, streams):
        rows = []
        for rng, (theta,) in zip(streams, _centres(centers, len(streams), 1)):
            k = rng.chisquare(3.0)
            rows.append([k * theta + np.sqrt(k) * rng.standard_normal(), k])
        return np.column_stack([np.reshape(rows, (-1, 2)), self.mask[: len(streams)]])


# every model's draw, with a law for its centres: (model, centre(rng))
DRAW_MODELS = {
    "lan": (lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]])), lambda r: r.standard_normal(2)),
    "wishart_constant": (
        wishart_lamn_model(LamnSpec(2, ConstantCurvature(np.array([[1.5, 0.4], [0.4, 0.8]])))),
        lambda r: r.standard_normal(2),
    ),
    "wishart": (
        wishart_lamn_model(LamnSpec(3, WishartCurvature(5.0, np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]])))),
        lambda r: r.standard_normal(3),
    ),
    "ar1": (Ar1Model(7, x0=1.5), lambda r: r.uniform(-1.2, 1.2, 1)),
    "ar1_random_x0": (Ar1Model(5, random_x0=True), lambda r: r.uniform(-1.2, 1.2, 1)),
    "iid_normal": (NormalLocationIid(2, 4), lambda r: r.standard_normal(2)),
    "iid_exponential": (ExponentialRateIid(6), lambda r: r.uniform(0.2, 3.0, 1)),
    "animal": (
        AnimalModel(relationship_matrix(synthetic_pedigree(4, 5, 2, 3))),
        lambda r: r.standard_normal(3) * [1.0, 0.5, 0.5],
    ),
    "toy": (MaskedModel(np.zeros(64)), lambda r: r.standard_normal(1)),
}


class TestDraw:
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(DRAW_MODELS)),
        n=st.integers(0, 6),
        seed=st.integers(0, 2**64),
        paths=st.lists(
            st.lists(st.one_of(st.integers(0, 2**40), st.sampled_from(["toy", "score-normality"])), max_size=3).map(tuple),
            min_size=1,
            max_size=4,
        ),
    )
    def test_row_i_is_a_draw_from_stream_i(self, name, n, seed, paths):
        """Row ``(c, j)`` of a many-centre draw is the data set drawn alone at
        centre c from the stream ``(seed, *paths[c], j)``, and the rows of
        centre c are its level drawn alone."""
        model, centre = DRAW_MODELS[name]
        centers = np.array([centre(derive_rng(seed, "centre", c)) for c in range(len(paths))])
        stack = draw(model, centers, n, seed, paths)
        assert len(stack) == len(paths) * n
        for c, path in enumerate(paths):
            assert np.array_equal(stack[c * n : (c + 1) * n], draw(model, centers[c : c + 1], n, seed, [path]))
            for j in range(n):
                alone = model.simulate(centers[c], derive_rng(seed, *path, j))
                if name == "animal":
                    # Q'y of a level is one matrix product a centre, of a row a
                    # vector product: equal up to rounding (TestAnimalSimulate)
                    np.testing.assert_allclose(stack[c * n + j], alone, rtol=1e-12, atol=1e-12)
                else:
                    assert np.array_equal(stack[c * n + j], alone)


class TestCheckNaoAccounting:
    """Each Monte Carlo check counts the NaO rows of its drawn stack and keeps
    the rest: what a loop over the usable data sets, one at a time, gives."""

    @settings(max_examples=30, deadline=None)
    @given(
        check=st.sampled_from(["contiguity", "invariance", "normality"]),
        n=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
        mask=st.integers(0, 2**30 - 1),
    )
    # scipy cannot take this pair's exact KS p-value and warns as it falls back to the asymptotic one
    @example(check="invariance", n=14, seed=1, mask=1019)
    def test_nao_rows_are_counted_and_the_rest_kept(self, check, n, seed, mask):
        nao = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        model, clean = MaskedModel(nao), MaskedModel(np.zeros(1))
        theta, other = np.array([0.4]), np.array([-0.6])
        kept = n - int(nao.sum())

        def usable(at, path):
            """The objectives of the data sets drawn at ``at`` whose flag is not set, in order."""
            return [clean.objective(clean.simulate(at, derive_rng(seed, *path, i))) for i in range(n) if not nao[i]]

        if check == "contiguity":
            mean, se, n_nao = model_contiguity_estimate(model, theta, other, n, seed)
            assert n_nao == n - kept
            if kept < 2:
                assert np.isnan(mean) and np.isnan(se)
            else:
                qs = usable(theta, ("model-contiguity",))
                ratios = np.array([np.exp(q(theta + other).value - q(theta).value) for q in qs])
                assert (mean, se) == (ratios.mean(), ratios.std(ddof=1) / np.sqrt(kept))
            return
        if check == "invariance":
            report = hessian_invariance_test(model, theta, other, n, seed)
            assert report.n_nao == 2 * (n - kept)
        else:
            report = score_normality_test(model, theta, n, seed)
            assert report.n_nao == n - kept
        if kept < 2:
            assert np.isnan(report.p_value) and report.per_summary == {}
        elif check == "invariance":
            a = np.array([-q(theta).hessian[0, 0] for q in usable(theta, ("invariance-a",))])
            b = np.array([-q(other).hessian[0, 0] for q in usable(other, ("invariance-b",))])
            pairs = {"info_00": (a, b), "logdet": (np.log(a), np.log(b))}
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful", RuntimeWarning)
                assert report.per_summary == {name: float(stats.ks_2samp(*pair).pvalue) for name, pair in pairs.items()}
        else:
            evs = [q(theta) for q in usable(theta, ("score-normality",))]
            scores = np.array([np.linalg.solve(symmetric_sqrt(-ev.hessian), ev.gradient)[0] for ev in evs])
            assert report.per_summary == {"coord_0": float(stats.kstest(scores, "norm").pvalue)}


class TestStreamLayout:
    """Replicate i draws from ``derive_rng(seed, *path, i)`` and nothing else."""

    def lan(self):
        return lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]]))

    def test_parametric_bootstrap_values(self):
        model, theta_hat, seed, B = self.lan(), np.array([0.3, -0.2]), 13, 25
        pivot = make_wald_pivot(model)
        expected = []
        for i in range(B):
            data = model.simulate(theta_hat, derive_rng(seed, "bootstrap", 0, i))
            theta_star, trace = safeguarded_maximize(model.objective(data), theta_hat)
            assert trace.converged
            expected.append(pivot_alone(pivot, model, data, theta_star, theta_hat))
        samples = parametric_bootstrap(model, theta_hat, B, pivot, seed)
        assert samples.n_nao == 0
        assert np.array_equal(samples.values, expected)

    def test_model_contiguity_estimate(self):
        model, psi, delta, seed, nsim = self.lan(), np.array([0.1, 0.4]), np.array([0.5, -0.25]), 21, 40
        ratios = []
        for i in range(nsim):
            objective = model.objective(model.simulate(psi, derive_rng(seed, "model-contiguity", i)))
            ratios.append(np.exp(objective(psi + delta).value - objective(psi).value))
        ratios = np.asarray(ratios)
        expected = (ratios.mean(), ratios.std(ddof=1) / np.sqrt(nsim), 0)
        assert model_contiguity_estimate(model, psi, delta, nsim, seed) == expected

    @pytest.mark.parametrize("kind", ["lan", "wishart"])
    def test_hessian_invariance_test(self, kind):
        if kind == "lan":
            model = self.lan()
        else:
            model = wishart_lamn_model(LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0)))
        theta_a, theta_b, seed, nsim = np.array([0.1, 0.4]), np.array([0.6, -0.2]), 23, 60

        def summaries(theta, stream):
            infos = []
            for i in range(nsim):
                objective = model.objective(model.simulate(theta, derive_rng(seed, stream, i)))
                infos.append(-objective(theta).hessian)
            infos = np.asarray(infos)
            sign, logdet = np.linalg.slogdet(infos)
            entries = {f"info_{i}{j}": infos[:, i, j] for i in range(2) for j in range(i, 2)}
            entries["logdet"] = logdet[sign > 0]
            return entries

        a, b = summaries(theta_a, "invariance-a"), summaries(theta_b, "invariance-b")
        report = hessian_invariance_test(model, theta_a, theta_b, nsim, seed)
        for name in a:
            assert report.per_summary[name] == float(stats.ks_2samp(a[name], b[name]).pvalue)
        assert report.n_nao == 0 and report.n_summaries == len(a)

    @pytest.mark.parametrize("kind", ["lan", "wishart"])
    def test_score_normality_test(self, kind):
        if kind == "lan":
            model = self.lan()
        else:
            model = wishart_lamn_model(LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0)))
        theta, seed, nsim = np.array([0.2, -0.3]), 29, 60
        scores = []
        for i in range(nsim):
            ev = model.objective(model.simulate(theta, derive_rng(seed, "score-normality", i)))(theta)
            scores.append(np.linalg.solve(symmetric_sqrt(-ev.hessian), ev.gradient))
        scores = np.asarray(scores)
        report = score_normality_test(model, theta, nsim, seed)
        for j in range(2):
            assert report.per_summary[f"coord_{j}"] == float(stats.kstest(scores[:, j], "norm").pvalue)
        assert report.n_nao == 0
