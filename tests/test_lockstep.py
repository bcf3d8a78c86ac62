"""Lockstep Newton over a stack of data sets against one data set at a time."""

import numpy as np
import pytest
from conftest import pivot_alone, refit_alone

from quadlik import (
    AnimalModel,
    AnimalParams,
    Ar1Model,
    ExponentialRateIid,
    LamnSpec,
    NormalLocationIid,
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
from quadlik.cli import _heritability_pivot
from quadlik.inference import fit_stack
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


class TestFitStack:
    """Row i of a stacked fit is ``fit_mle`` of data set i alone, bit for bit."""

    THETAS = {
        **THETAS, "ar1": np.array([0.6]), "iid_normal": np.array([0.3, -1.2]),
        "animal": np.array([0.2, 0.1, -0.3]),
    }

    def model(self, name):
        if name == "ar1":
            return Ar1Model(12, 1.0)
        if name == "iid_normal":
            return NormalLocationIid(2, 5)
        if name == "animal":
            return AnimalModel(relationship_matrix(synthetic_pedigree(5, 6, 2, 7)))
        return MODELS[name]()

    @pytest.mark.parametrize("name", ["lan", "wishart", "ar1", "animal", "iid_normal", "exponential"])
    def test_rows_equal_fit_mle_alone(self, name):
        model = self.model(name)
        datas = [model.simulate(self.THETAS[name], derive_rng(31, i)) for i in range(12)]
        if name == "exponential":
            # no start (a sample of zeros), and a converged fit whose information n/psi**2 underflows
            datas[2], datas[5] = np.zeros(7), np.array([1e-300, 2e-300, 3e-300, 1e-300, 2e-300, 3e-300, 1e-300])
        stack = np.array(datas)
        thetas, infos, steps, holds, norms = fit_stack(model, stack, model.starts(stack))
        p = self.THETAS[name].size
        assert thetas.shape == (12, p) and infos.shape == (12, p, p)
        for i, data in enumerate(datas):
            fit = fit_mle(model, data)
            trace = fit.trace
            assert (steps[i], holds[i], same_bits(norms[i], trace.final_grad_norm)) == (trace.steps, trace.converged, True)
            if holds[i]:
                assert same_bits(thetas[i], fit.theta_hat) and same_bits(infos[i], fit.observed_info)
            else:
                assert is_nao(fit.theta_hat) and fit.observed_info is None and np.isnan(infos[i]).all()
        if name == "exponential":
            assert holds.tolist() == [i not in (2, 5) for i in range(12)]
            # the start failed; the fit converged, but its information fails the pivot test
            assert np.isnan(thetas[2]).all() and steps[2] == 0 and np.isnan(norms[2])
            assert np.isfinite(thetas[5]).all()
        else:
            assert holds.all()


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
        stack = np.array(datas)
        starts = model.starts(stack)
        thetas, infos = fit_stack(model, stack, starts)[:2]
        values = pivot(thetas, infos, theta_hats)
        assert thetas.shape == (len(datas), THETAS[name].size) and values.shape == (len(datas),)
        for i, data in enumerate(datas):
            theta_star, value = refit_alone(model, theta_hats[i], pivot, data, starts[i])
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
            theta_star, trace = safeguarded_maximize(model.objective(data), theta_hat)
            value = pivot_alone(pivot, model, data, theta_star, theta_hat) if trace.converged else np.nan
            if not np.isnan(value):
                single.append(value)
        assert samples.n_nao == B - len(single)
        assert np.allclose(samples.values, single, rtol=1e-6, atol=0.0)
