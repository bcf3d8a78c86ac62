"""Lockstep Newton over a stack of data sets against one data set at a time."""

import numpy as np
import pytest
from conftest import pivot_alone, refit_alone

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
    newton_iterate,
    parametric_bootstrap,
    relationship_matrix,
    safeguarded_maximize,
    synthetic_pedigree,
    wishart_lamn_model,
)
from quadlik.bootstrap import _refit
from quadlik.cli import _heritability_pivot
from quadlik.newton import lockstep_fit


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
    starts = model.starts(np.array(datas)) * (1.0 + rng.uniform(-0.9, 3.0, (n, 1)))
    return model, datas, starts


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestLockstepMaximize:
    @pytest.mark.parametrize(
        "name, plain",
        [pytest.param(name, plain, id=name + ("-plain" if plain else "")) for plain in (False, True) for name in sorted(MODELS)],
    )
    def test_stack_equals_each_row_alone(self, name, plain):
        model, datas, starts = data_sets(name, 40, 3)
        thetas, steps, converged, final = lockstep_fit(model.stacked_objective(datas), starts, plain=plain)
        for i, (data, x0) in enumerate(zip(datas, starts)):
            one, one_steps, one_converged, one_final = lockstep_fit(
                model.stacked_objective([data]), x0[None], plain=plain
            )
            assert same_bits(thetas[i], one[0]) and steps[i] == one_steps[0] and converged[i] == one_converged[0]
            assert final.ok[i] == one_final.ok[0] and same_bits(final.packed[i], one_final.packed[0])
            theta, trace = (newton_iterate if plain else safeguarded_maximize)(model.objective(data), x0)
            assert is_nao(theta) if plain and not converged[i] else same_bits(thetas[i], theta)
            assert (trace.steps, trace.converged) == (steps[i], converged[i])
            assert trace.final_grad_norm == np.abs(final.packed[i, 1 : 1 + x0.size]).max()
        if name == "exponential":
            assert len(set(steps.tolist())) > 1
            # plain Newton steps some scattered starts out of the positive domain
            assert not plain or not converged.all()

    def test_nao_start_rows_drop_out(self):
        model, datas, starts = data_sets("exponential", 6, 5)
        starts[[1, 4]] = -1.0  # outside the positive domain
        thetas, steps, converged, final = lockstep_fit(model.stacked_objective(datas), starts)
        assert final.ok.tolist() == [True, False, True, True, False, True]
        assert np.array_equal(thetas[[1, 4]], starts[[1, 4]])
        assert steps[[1, 4]].tolist() == [0, 0]
        assert converged.tolist() == final.ok.tolist()

    def test_tolerance_and_step_cap_per_row(self):
        model, datas, starts = data_sets("exponential", 5, 7)
        _, steps, converged, _ = lockstep_fit(model.stacked_objective(datas), starts, max_steps=0)
        assert not steps.any() and not converged.any()
        _, steps, converged, _ = lockstep_fit(model.stacked_objective(datas), starts, tol=1e300)
        assert not steps.any() and converged.all()


class TestStackedLevel:
    @pytest.mark.parametrize("name", ["lan", "wishart"])
    def test_level_equals_each_replicate_alone(self, name):
        model, theta_hat, seed, B = MODELS[name](), THETAS[name], 17, 30
        pivot = make_wald_pivot(model)
        samples = parametric_bootstrap(model, theta_hat, B, pivot, seed)
        alone = []
        for i in range(B):
            data = model.simulate(theta_hat, derive_rng(seed, "bootstrap", 0, i))
            _, value = refit_alone(model, theta_hat, pivot, data)
            alone.append(value)
        assert samples.n_nao == np.isnan(alone).sum() == 0
        assert np.array_equal(samples.values, alone)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_refit_rows_equal_refit_alone(self, name):
        model, datas, _ = data_sets(name, 30, 23)
        if name == "exponential":
            # no start: a sample of zeros, a negative mean
            datas[3], datas[8] = np.zeros(7), -datas[8]
        theta_hats = THETAS[name] + np.random.default_rng(1).uniform(-0.5, 0.5, (len(datas), THETAS[name].size))
        pivot = make_wald_pivot(model)
        thetas, values = _refit(model, theta_hats, pivot, np.array(datas))
        assert thetas.shape == (len(datas), THETAS[name].size) and values.shape == (len(datas),)
        for i, data in enumerate(datas):
            theta_star, value = refit_alone(model, theta_hats[i], pivot, data)
            assert same_bits(thetas[i], theta_star) and same_bits(values[i], value)
        if name == "exponential":
            assert np.isnan(thetas[[3, 8]]).all() and np.isnan(values[[3, 8]]).all()
            assert np.isfinite(values).sum() == len(datas) - 2

    def test_animal_level_matches_single_fits(self):
        # N = 200, B = 200: every replicate refit alone by the single-fit path
        model = AnimalModel(relationship_matrix(synthetic_pedigree(40, 40, 4, 3)))
        y = model.simulate(model.params_to_phi(AnimalParams(0.0, 1.33, 0.67)), derive_rng(5))
        theta_hat = fit_mle(model, y).theta_hat
        pivot, seed, B = _heritability_pivot(model), 11, 200
        samples = parametric_bootstrap(model, theta_hat, B, pivot, seed)
        single = []
        for i in range(B):
            data = model.simulate(theta_hat, derive_rng(seed, "bootstrap", 0, i))
            x0 = model.starts(np.array([data]))[0]
            theta_star, trace = safeguarded_maximize(model.objective(data), x0)
            value = pivot_alone(pivot, model, data, theta_star, theta_hat) if trace.converged else np.nan
            if not np.isnan(value):
                single.append(value)
        assert samples.n_nao == B - len(single)
        assert np.allclose(samples.values, single, rtol=1e-6, atol=0.0)
