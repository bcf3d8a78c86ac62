"""Shared test oracles: finite differences, error metrics, one-row pivots and refits.

The finite-difference helpers differentiate objective *values* only, so they
stay independent of the analytic gradients and Hessians they check.
"""

from __future__ import annotations

import numpy as np

from quadlik.core import NaO, StackedEval, is_nao
from quadlik.newton import safeguarded_maximize


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


def rel_err(actual, expected) -> float:
    a = np.asarray(actual, dtype=float)
    b = np.asarray(expected, dtype=float)
    denom = max(float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / denom


def random_spd(rng: np.random.Generator, p: int, floor: float = 0.1) -> np.ndarray:
    g = rng.standard_normal((p, p))
    return g @ g.T + floor * np.eye(p)


def pivot_alone(pivot, model, data, theta_star, theta_hat) -> float:
    """A level pivot on a stack of one: the data set's single evaluation at
    ``theta_star``, packed as the lockstep packs its final evaluations.

    Returns a float, NaN where the pivot's row is NaO.
    """
    ev = model.objective(data)(theta_star)
    p = np.size(theta_star)
    if is_nao(ev):
        row = StackedEval(np.full((1, 1 + p + p * p), np.nan), np.array([False]))
    else:
        packed = np.concatenate([[ev.value], ev.gradient, ev.hessian.ravel()])
        row = StackedEval(packed[None], np.array([True]))
    thetas = np.asarray(theta_star, dtype=float).reshape(1, p)
    return float(pivot(row, thetas, np.asarray(theta_hat, dtype=float).reshape(1, p))[0])


def refit_alone(model, theta_hat, pivot, data):
    """One bootstrap replicate the long way: its own ``model.start`` and
    safeguarded fit, then the pivot on a stack of one; ``(NaO, NaO)`` where
    any of them fails."""
    try:
        x0 = model.start(data)
        if is_nao(x0):
            return NaO, NaO
        theta_star, trace = safeguarded_maximize(model.objective(data), x0)
    except ValueError:
        return NaO, NaO
    if not trace.converged:
        return NaO, NaO
    value = pivot_alone(pivot, model, data, theta_star, theta_hat)
    return theta_star, value if np.isfinite(value) else NaO
