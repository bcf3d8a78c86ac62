"""Cross-module invariants: NaO propagation table, stream derivation, Fatou."""

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
    NaO,
    NormalLocationIid,
    QuadraticForm,
    WishartCurvature,
    confidence_region,
    derive_rng,
    is_nao,
    lan_normal_location,
    local_shift,
    model_contiguity_estimate,
    newton_iterate,
    newton_step,
    relationship_matrix,
    standardized_estimator,
    symmetric_sqrt,
    synthetic_pedigree,
    wald_pivot,
    wishart_lamn_model,
)
from quadlik.inference import MleResult
from quadlik.newton import NewtonTrace


class TestNaOPropagationTable:
    """Every operation that accepts a parameter-like argument passes NaO through."""

    def test_operation_table(self):
        q = QuadraticForm(0.0, [1.0, -1.0], np.eye(2))
        model = lan_normal_location(np.eye(2))
        shifted = local_shift(model, np.zeros(2), np.zeros(2))
        nao_fit = MleResult(NaO, None, NewtonTrace())
        operations = [
            lambda: q.objective()(NaO),
            lambda: model.objective(np.zeros(2))(NaO),
            lambda: shifted(NaO),
            lambda: newton_step(q.objective(), NaO),
            lambda: newton_iterate(q.objective(), NaO)[0],
            lambda: symmetric_sqrt(NaO),
            lambda: wald_pivot(NaO, np.zeros(2), np.eye(2)),
            lambda: wald_pivot(np.zeros(2), NaO, np.eye(2)),
            lambda: wald_pivot(np.zeros(2), np.zeros(2), NaO),
            lambda: confidence_region(nao_fit, 0.05),
            lambda: standardized_estimator(nao_fit, np.zeros(2)),
        ]
        for op in operations:
            assert is_nao(op())


class TestStreamDerivation:
    def test_same_path_same_stream(self):
        a = derive_rng(5, "x", 3).standard_normal(4)
        b = derive_rng(5, "x", 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(5, "x", 3).standard_normal(4)
        b = derive_rng(5, "x", 4).standard_normal(4)
        c = derive_rng(6, "x", 3).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_components_are_stable(self):
        # crc32("bootstrap") pins the mapping across platforms and runs
        import zlib

        assert zlib.crc32(b"bootstrap") == 1369654896
        a = derive_rng(1, "bootstrap", 0).standard_normal(2)
        b = derive_rng(1, 1369654896, 0).standard_normal(2)
        assert np.array_equal(a, b)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(1, -2)


class TestFatouOneSidedness:
    def test_exact_model_hits_equality(self):
        model = lan_normal_location(np.array([[2.0, 0.3], [0.3, 1.0]]))
        psi = np.array([0.2, -0.4])
        delta = np.array([0.3, 0.5])
        mean, se, n_nao = model_contiguity_estimate(model, psi, delta, 20_000, 57)
        assert n_nao == 0
        assert mean <= 1.0 + 4.0 * se
        assert abs(mean - 1.0) <= 4.0 * se


class TestAr1NonExamplePair:
    def test_quadratic_but_not_curvature_invariant(self):
        # constant Hessian in the parameter, yet its law moves with the truth
        from quadlik import Ar1Model, fit_mle, hessian_invariance_test, quadraticity_report

        model = Ar1Model(50, x0=1.0)
        data = model.simulate(np.array([0.0]), derive_rng(91))
        fit = fit_mle(model, data)
        shifted = local_shift(model, data, fit.theta_hat)
        report = quadraticity_report(shifted, np.zeros(1), GridBox([-1.0], [1.0], [17]))
        assert report.d2 == 0.0
        test = hessian_invariance_test(model, np.array([0.0]), np.array([0.9]), 1200, 93)
        assert test.p_value < 0.01


# (model, psi, a strategy for an entry outside the domain, a strategy for
# entries inside it whose evaluation is not finite, the axes those go on)
_UNBOUNDED = st.sampled_from([np.nan, np.inf, -np.inf])
_HUGE = st.floats(1e160, 1e300) | st.floats(-1e300, -1e160)
NAO_CASES = {
    "lan": (lan_normal_location(np.array([[2.0, 0.5], [0.5, 1.0]])), np.array([0.3, -0.2]), _UNBOUNDED, _HUGE, [0, 1]),
    "wishart": (
        wishart_lamn_model(LamnSpec(2, WishartCurvature(5.0, np.eye(2) / 5.0))),
        np.array([0.4, 0.1]), _UNBOUNDED, _HUGE, [0, 1],
    ),
    "ar1": (Ar1Model(12, x0=1.0), np.array([0.5]), _UNBOUNDED, _HUGE, [0]),
    # past a log variance of 355 the log-scale Hessian overflows
    "animal": (
        AnimalModel(relationship_matrix(synthetic_pedigree(6, 9, 2, 17))),
        AnimalModel.params_to_phi(AnimalParams(0.5, 1.2, 0.8)),
        _UNBOUNDED, st.floats(356.0, 1e300), [2],
    ),
    "iid_normal": (NormalLocationIid(2, 7), np.array([0.1, -0.4]), _UNBOUNDED, _HUGE, [0, 1]),
    # a rate under about 3e-308 overflows the score n / rate
    "iid_exponential": (
        ExponentialRateIid(6), np.array([1.3]), st.floats(max_value=0.0) | st.just(np.inf), st.floats(5e-324, 1e-310), [0],
    ),
}


class TestNaOPropagationProperty:
    """NaO in gives NaO out of every public operation, and a model's objective
    is NaO at a parameter of the wrong length, outside the domain, or with a
    non-finite evaluation."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(NAO_CASES)), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_nao_in_nao_out(self, kind, seed, data):
        model, psi, outside, blowup, axes = NAO_CASES[kind]
        p = psi.size
        rng = np.random.default_rng(seed)
        sample = model.simulate(psi, derive_rng(seed))
        q = model.objective(sample)
        form = QuadraticForm(rng.standard_normal(), rng.standard_normal(p), random_spd(rng, p))
        fit = MleResult(psi, form.k, NewtonTrace(0, True, 0.0))
        nao_fit = MleResult(NaO, None, NewtonTrace())
        results = [
            newton_step(q, NaO),
            newton_iterate(q, NaO)[0],
            form.objective()(NaO),
            wald_pivot(NaO, psi, form.k),
            wald_pivot(psi, NaO, form.k),
            wald_pivot(psi, psi, NaO),
            symmetric_sqrt(NaO),
            standardized_estimator(nao_fit, psi),
            standardized_estimator(fit, NaO),
            local_shift(model, sample, psi)(NaO),
            q(NaO),
        ]
        assert all(r is NaO for r in results)
        assert not is_nao(q(psi))

        out = psi.copy()
        out[data.draw(st.integers(0, p - 1))] = data.draw(outside)
        wrong = data.draw(st.sampled_from([psi[:-1], np.append(psi, 0.0), psi[None]]))
        far = psi.copy()
        for j in data.draw(st.lists(st.sampled_from(axes), min_size=1, unique=True)):
            far[j] = data.draw(blowup)
        with np.errstate(all="ignore"):
            assert q(out) is NaO and q(wrong) is NaO and q(far) is NaO
        # a quadratic form's objective follows the same rules
        f = form.objective()
        assert f(wrong) is NaO and f(np.full(p, np.nan)) is NaO
        if wrong.ndim == 1:
            assert not f.stack(np.stack([wrong, wrong])).ok.any()
        # a shift of the wrong shape is NaO too, and so is a stack of shifts
        # of the wrong length
        shifted = local_shift(model, sample, psi)
        assert shifted(wrong) is NaO
        if wrong.ndim == 1:
            assert not shifted.stack(np.stack([wrong, wrong])).ok.any()
