"""Lockstep Newton over a stack of data sets against one data set at a time."""

import numpy as np
import pytest
from conftest import pivot_alone

from quadlik import (
    AnimalModel,
    AnimalParams,
    ExponentialRateIid,
    LamnSpec,
    WishartCurvature,
    derive_rng,
    fit_mle,
    is_nao,
    lan_normal_location,
    make_wald_pivot,
    parametric_bootstrap,
    relationship_matrix,
    safeguarded_maximize,
    synthetic_pedigree,
    wishart_lamn_model,
)
from quadlik.bootstrap import _one_replicate
from quadlik.cli import _heritability_pivot
from quadlik.newton import lockstep_maximize


def lan():
    return lan_normal_location(np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]]))


def wishart():
    return wishart_lamn_model(LamnSpec(3, WishartCurvature(5.0, np.eye(3) / 5.0)))


MODELS = {"lan": lan, "wishart": wishart, "exponential": lambda: ExponentialRateIid(7)}
THETAS = {"lan": np.array([0.3, -0.2, 0.5]), "wishart": np.array([0.4, -1.0, 0.2]), "exponential": np.array([1.5])}


def data_sets(name, n, seed):
    model = MODELS[name]()
    datas = [model.simulate(THETAS[name], derive_rng(seed, i)) for i in range(n)]
    rng = np.random.default_rng(seed)
    # scattered starts, so rows take different step counts and backtracks
    starts = np.array([model.start(d) * (1.0 + rng.uniform(-0.9, 3.0)) for d in datas])
    return model, datas, starts


def same_trace(a, b):
    return (
        a.steps == b.steps
        and a.converged == b.converged
        and a.grad_norms == b.grad_norms
        and len(a.iterates) == len(b.iterates)
        and all(np.array_equal(x, y) for x, y in zip(a.iterates, b.iterates))
    )


class TestLockstepMaximize:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_stack_equals_each_row_alone(self, name):
        model, datas, starts = data_sets(name, 40, 3)
        thetas, traces = lockstep_maximize(model.stacked_objective(datas), starts)
        steps = {t.steps for t in traces}
        for i, (data, x0) in enumerate(zip(datas, starts)):
            one, (trace,) = lockstep_maximize(model.stacked_objective([data]), x0[None])
            assert np.array_equal(thetas[i], one[0]) and same_trace(traces[i], trace)
            theta, single = safeguarded_maximize(model.objective(data), x0)
            assert np.array_equal(thetas[i], theta) and same_trace(traces[i], single)
        if name == "exponential":
            assert len(steps) > 1

    def test_nao_start_rows_drop_out(self):
        model, datas, starts = data_sets("exponential", 6, 5)
        starts[[1, 4]] = -1.0  # outside the positive domain
        thetas, traces = lockstep_maximize(model.stacked_objective(datas), starts)
        assert [is_nao(t) for t in traces] == [False, True, False, False, True, False]
        assert np.array_equal(thetas[[1, 4]], starts[[1, 4]])
        assert all(t.converged for i, t in enumerate(traces) if i not in (1, 4))

    def test_tolerance_and_step_cap_per_row(self):
        model, datas, starts = data_sets("exponential", 5, 7)
        _, capped = lockstep_maximize(model.stacked_objective(datas), starts, max_steps=0)
        assert all(t.steps == 0 and not t.converged for t in capped)
        _, loose = lockstep_maximize(model.stacked_objective(datas), starts, tol=1e300)
        assert all(t.steps == 0 and t.converged for t in loose)


class TestStackedLevel:
    @pytest.mark.parametrize("name", ["lan", "wishart"])
    def test_level_equals_each_replicate_alone(self, name):
        model, theta_hat, seed, B = MODELS[name](), THETAS[name], 17, 30
        pivot = make_wald_pivot(model)
        samples = parametric_bootstrap(model, theta_hat, B, pivot, model.start, seed)
        alone = []
        for i in range(B):
            data = model.simulate(theta_hat, derive_rng(seed, "bootstrap", 0, i))
            _, value = _one_replicate(model, theta_hat, pivot, model.start, data)
            alone.append(value)
        assert samples.n_nao == sum(is_nao(v) for v in alone) == 0
        assert np.array_equal(samples.values, alone)

    def test_animal_level_matches_single_fits(self):
        # N = 200, B = 200: every replicate refit alone by the single-fit path
        model = AnimalModel(relationship_matrix(synthetic_pedigree(40, 40, 4, 3)))
        y = model.simulate(model.params_to_phi(AnimalParams(0.0, 1.33, 0.67)), derive_rng(5))
        theta_hat = fit_mle(model, y).theta_hat
        pivot, seed, B = _heritability_pivot(model), 11, 200
        samples = parametric_bootstrap(model, theta_hat, B, pivot, model.start, seed)
        single = []
        for i in range(B):
            data = model.simulate(theta_hat, derive_rng(seed, "bootstrap", 0, i))
            theta_star, trace = safeguarded_maximize(model.objective(data), model.start(data))
            value = pivot_alone(pivot, model, data, theta_star, theta_hat) if trace.converged else np.nan
            if not np.isnan(value):
                single.append(value)
        assert samples.n_nao == B - len(single)
        assert np.allclose(samples.values, single, rtol=1e-6, atol=0.0)
