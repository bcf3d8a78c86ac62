"""Shared test oracles: finite differences, error metrics, hand-written
objectives, one-row pivots and refits; and the loader of the benchmark's
span tracer.

The finite-difference helpers differentiate objective *values* only, so they
stay independent of the analytic gradients and Hessians they check.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from quadlik.core import OpenBox, RowObjective, StackedObjective, is_nao, spd_factor
from quadlik.newton import safeguarded_maximize


TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    """The benchmark's span tracer, loaded from its file outside the package."""
    spec = importlib.util.spec_from_file_location("quadlik_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row_objective(kernel, dim: int = 1) -> RowObjective:
    """A hand-written objective of ``dim`` real parameters: ``kernel(thetas)``
    gives the value ``(m,)``, gradient ``(m, dim)`` and Hessian ``(m, dim,
    dim)`` of an ``(m, dim)`` stack of points.  Overflow is left to the NaO
    rules, which the objective applies quietly."""

    def stacked(rows, thetas):
        return kernel(thetas)

    return RowObjective(StackedObjective(OpenBox.unbounded(dim), 1, stacked))


def fd_gradient(value_fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * h)
    return grad


def fd_hessian(value_fn, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central second differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    p = x.size
    hess = np.zeros((p, p))
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h
        for j in range(i, p):
            ej = np.zeros(p)
            ej[j] = h
            hess[i, j] = (
                value_fn(x + ei + ej)
                - value_fn(x + ei - ej)
                - value_fn(x - ei + ej)
                + value_fn(x - ei - ej)
            ) / (4.0 * h * h)
            hess[j, i] = hess[i, j]
    return hess


def natural_loglik(model, y, point):
    """The animal log likelihood of one response y in natural coordinates: value,
    gradient and Hessian over ``point = (mu, sigma2, tau2)``, from the
    eigendecomposition an ``AnimalModel`` holds, NaN where V is numerically
    singular."""
    return model.natural_eval(model.rotate(y), *point)


def rel_err(actual, expected) -> float:
    a = np.asarray(actual, dtype=float)
    b = np.asarray(expected, dtype=float)
    denom = max(float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / denom


def random_spd(rng: np.random.Generator, p: int, floor: float = 0.1) -> np.ndarray:
    g = rng.standard_normal((p, p))
    return g @ g.T + floor * np.eye(p)


def pivot_alone(pivot, model, data, theta_star, theta_hat) -> float:
    """A level pivot on a stack of one: the refit ``theta_star`` and its
    observed information from the data set's single evaluation there, NaN
    where that evaluation is NaO or the information fails the pivot test.

    Returns a float, NaN where the pivot's row is NaO.
    """
    ev = model.objective(data)(theta_star)
    p = np.size(theta_star)
    info = np.full((1, p, p), np.nan)
    if not is_nao(ev) and spd_factor(-ev.hessian) is not None:
        info[0] = -ev.hessian
    thetas = np.asarray(theta_star, dtype=float).reshape(1, p)
    return float(pivot(thetas, info, np.asarray(theta_hat, dtype=float).reshape(1, p))[0])


def refit_alone(model, theta_hat, pivot, data, start=None):
    """One bootstrap replicate the long way: a safeguarded fit from ``start``,
    by default its centre ``theta_hat`` as in a bootstrap level, then the
    pivot on a stack of one.

    Returns ``(theta_star, value)``: a NaN row and NaN where the start or the
    fit fails, and NaN for the value where the pivot is not finite.
    """
    failed = np.full(model.dim_param, np.nan), np.nan
    x0 = theta_hat if start is None else start
    try:
        theta_star, trace = safeguarded_maximize(model.objective(data), x0)
    except ValueError:  # the objective is NaO at the start
        return failed
    if not trace.converged:
        return failed
    value = pivot_alone(pivot, model, data, theta_star, theta_hat)
    return theta_star, value if np.isfinite(value) else np.nan
