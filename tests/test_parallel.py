"""The replicate engine: NaO accounting, order, and the stream layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from quadlik import (
    LamnSpec,
    WishartCurvature,
    derive_rng,
    hessian_invariance_test,
    lan_normal_location,
    make_wald_pivot,
    model_contiguity_estimate,
    parametric_bootstrap,
    score_normality_test,
    symmetric_sqrt,
    wishart_lamn_model,
)
from quadlik.core import NaO
from quadlik.newton import safeguarded_maximize
from quadlik.parallel import replicates, stacked_replicates


class ToyModel:
    """Scalar data: one standard normal draw shifted by theta."""

    def simulate(self, theta, rng):
        return theta + rng.standard_normal()


class TestReplicateEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        workers=st.integers(1, 4),
        nao_mask=st.integers(0, 2**40 - 1),
    )
    def test_accounting_order_and_schedule_invariance(self, n, seed, workers, nao_mask):
        def fn(i, data):
            return NaO if (nao_mask >> i) & 1 else (i, data)

        kept, n_nao = replicates(ToyModel(), 0.5, n, seed, ("toy", 3), fn, workers)
        assert len(kept) + n_nao == n
        assert [i for i, _ in kept] == [i for i in range(n) if not (nao_mask >> i) & 1]
        assert replicates(ToyModel(), 0.5, n, seed, ("toy", 3), fn, 1) == (kept, n_nao)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 30), seed=st.integers(0, 2**32 - 1), nao_mask=st.integers(0, 2**30 - 1))
    def test_stacked_engine_keeps_the_accounting(self, n, seed, nao_mask):
        model = lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]]))
        nao = [bool((nao_mask >> i) & 1) for i in range(n)]

        def rows(datas):
            return np.array(datas).reshape(-1, 2), ~np.array(nao, dtype=bool)

        kept, n_nao = stacked_replicates(model, np.zeros(2), n, seed, ("toy", 3), rows)
        expected, expected_nao = replicates(
            model, np.zeros(2), n, seed, ("toy", 3), lambda i, data: NaO if nao[i] else data
        )
        assert n_nao == expected_nao
        assert np.array_equal(kept, np.reshape(expected, (-1, 2)))

    def test_each_replicate_simulates_once_from_its_stream(self):
        kept, n_nao = replicates(ToyModel(), 2.0, 5, 9, ("toy",), lambda i, data: data, 2)
        expected = [2.0 + derive_rng(9, "toy", i).standard_normal() for i in range(5)]
        assert kept == expected and n_nao == 0


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
            theta_star, trace = safeguarded_maximize(model.objective(data), model.start(data))
            assert trace.converged
            expected.append(pivot(data, theta_star, theta_hat))
        samples = parametric_bootstrap(model, theta_hat, B, pivot, model.start, seed)
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
            if np.ptp(a[name]) == 0.0 and np.ptp(b[name]) == 0.0 and a[name][0] == b[name][0]:
                expected = 1.0
            else:
                expected = float(stats.ks_2samp(a[name], b[name]).pvalue)
            assert report.per_summary[name] == expected
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
