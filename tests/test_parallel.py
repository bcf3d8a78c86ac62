"""The replicate engine: NaO accounting, order, and the stream layout."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlik import (
    derive_rng,
    lan_normal_location,
    make_wald_pivot,
    model_contiguity_estimate,
    parametric_bootstrap,
)
from quadlik.core import NaO
from quadlik.newton import safeguarded_maximize
from quadlik.parallel import replicates


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
