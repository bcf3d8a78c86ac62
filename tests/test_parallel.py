"""The replicate engine: NaO accounting, order, and the stream layout."""

import numpy as np
import pytest
from conftest import pivot_alone
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
from quadlik.core import LikModel
from quadlik.newton import safeguarded_maximize
from quadlik.parallel import replicates


class ToyModel(LikModel):
    """Scalar data: one standard normal draw shifted by theta."""

    def simulate(self, theta, rng):
        return theta + rng.standard_normal()


class TestReplicateEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        nao_mask=st.integers(0, 2**40 - 1),
    )
    def test_accounting_order_and_schedule_invariance(self, n, seed, nao_mask):
        nao = np.array([bool((nao_mask >> i) & 1) for i in range(n)], dtype=bool)
        seen = []

        def fn(datas):
            seen.append(list(datas))
            return np.array([(i, d) for i, d in enumerate(datas)]).reshape(-1, 2), ~nao

        kept, n_nao = replicates(ToyModel(), 0.5, n, seed, ("toy", 3), fn)
        # the oracle: replicate i alone, from its own stream, in an explicit loop
        drawn = [0.5 + derive_rng(seed, "toy", 3, i).standard_normal() for i in range(n)]
        assert seen == [drawn]
        assert len(kept) + n_nao == n and n_nao == int(nao.sum())
        assert kept[:, 0].tolist() == [i for i in range(n) if not nao[i]]
        assert kept[:, 1].tolist() == [d for d, bad in zip(drawn, nao) if not bad]
        again = replicates(ToyModel(), 0.5, n, seed, ("toy", 3), fn)
        assert np.array_equal(again[0], kept) and again[1] == n_nao

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 30), seed=st.integers(0, 2**32 - 1), nao_mask=st.integers(0, 2**30 - 1))
    def test_stacked_engine_keeps_the_accounting(self, n, seed, nao_mask):
        model = lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]]))
        nao = [bool((nao_mask >> i) & 1) for i in range(n)]

        def rows(datas):
            return np.array(datas).reshape(-1, 2), ~np.array(nao, dtype=bool)

        kept, n_nao = replicates(model, np.zeros(2), n, seed, ("toy", 3), rows)
        expected = [model.simulate(np.zeros(2), derive_rng(seed, "toy", 3, i)) for i in range(n)]
        expected = [data for data, bad in zip(expected, nao) if not bad]
        assert n_nao == sum(nao)
        assert np.array_equal(kept, np.reshape(expected, (-1, 2)))

    def test_each_replicate_simulates_once_from_its_stream(self):
        def rows(datas):
            return np.array(datas), np.ones(len(datas), dtype=bool)

        kept, n_nao = replicates(ToyModel(), 2.0, 5, 9, ("toy",), rows)
        expected = [2.0 + derive_rng(9, "toy", i).standard_normal() for i in range(5)]
        assert kept.tolist() == expected and n_nao == 0


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
