"""Observed-information inference: Wald pivots, chi-square regions, bounds.

The variance approximation everywhere is observed information, the negative
Hessian of the log likelihood at the estimate.  Chi-square tails and
quantiles are the regularized upper incomplete gamma function and its
inverse from ``scipy.special`` (DiDonato & Morris 1986, ACM TOMS 12:377).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammainccinv

from .core import LikModel, MaybeParam, NaO, StackedEval, _symmetrized, cholesky_pivots, is_nao, reduce_rows, spd_factor
from .newton import DEFAULT_MAX_STEPS, NewtonTrace, lockstep_fit

# ---------------------------------------------------------------------------
# Chi-square upper tail and quantile
# ---------------------------------------------------------------------------


def chisq_upper_tail(p: int, x: float) -> float:
    """P(chi-square with p degrees of freedom >= x)."""
    if p <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0:
        return 1.0
    return float(gammaincc(p / 2.0, x / 2.0))


def chisq_upper_quantile(p: int, alpha: float) -> float:
    """The point kappa with P(chi-square_p >= kappa) = alpha."""
    p = int(p)
    if p < 1:
        raise ValueError("degrees of freedom must be a positive integer")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return 2.0 * float(gammainccinv(p / 2.0, alpha))


# ---------------------------------------------------------------------------
# Fits, pivots, and regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MleResult:
    """A fit: estimate, observed information at it, Newton trace.

    ``theta_hat`` is NaO (and ``observed_info`` None) when the fit is NaO
    (:func:`fit_stack`); otherwise its information passes the pivot test.
    """

    theta_hat: MaybeParam
    observed_info: np.ndarray | None
    trace: NewtonTrace

    @property
    def converged(self) -> bool:
        return self.trace.converged


def fit_stack(model: LikModel, datas, max_steps: int = DEFAULT_MAX_STEPS):
    """Maximize the log likelihood on each data set of a stack: one lockstep
    safeguarded Newton from ``model.starts``, row i as data set i alone.  A
    fit is NaO when its run does not meet the gradient criterion (an NaO
    start among them) or its observed information, the negative Hessian at
    its final evaluation, fails the pivot test.  Returns per row the refits
    ``(m, p)``, NaN where not converged; the informations ``(m, p, p)``, NaN
    where NaO; the steps; whether the fit holds (is not NaO); and the final
    gradient sup norm, NaN where the start had none.
    """
    stack = np.asarray(datas, dtype=float)
    thetas, steps, converged, final = lockstep_fit(model.stacked_objective(stack), model.starts(stack), max_steps=max_steps)
    _, grad, hess = StackedEval.split(final.packed, model.dim_param)
    infos = -hess
    holds = converged & ~np.isnan(cholesky_pivots(infos)[0][:, 0, 0])
    infos[~holds], thetas[~converged] = np.nan, np.nan
    return thetas, infos, steps, holds, np.where(final.ok, reduce_rows(np.maximum, np.abs(grad)), np.nan)


def fit_mle(model: LikModel, data, max_steps: int = DEFAULT_MAX_STEPS) -> MleResult:
    """Maximize the model's log likelihood by safeguarded Newton.

    Row 0 of :func:`fit_stack` on the data set's stack of one.  An NaO fit
    yields an NaO result whose trace is kept and marked not converged; an
    NaO start (a NaN start among them) yields one with 0 steps.
    """
    thetas, infos, steps, holds, norms = fit_stack(model, [data], max_steps)
    trace = NewtonTrace(int(steps[0]), bool(holds[0]), float(norms[0]))
    return MleResult(thetas[0], infos[0], trace) if holds[0] else MleResult(NaO, None, trace)


def symmetric_sqrt(m) -> MaybeParam:
    """Symmetric square root of a positive definite matrix, else NaO.

    Positive definiteness is decided by the pivot test; the root itself
    comes from an eigendecomposition and is symmetrized exactly.  A stack
    ``(m, p, p)`` gives the stack of roots, each with the bits it has
    alone, and all NaN for every matrix that fails (as in
    :func:`~quadlik.core.cholesky_pivots`).
    """
    if is_nao(m):
        return NaO
    a = np.asarray(m, dtype=float)
    stack = a.reshape(-1, *a.shape[-2:])
    good = ~np.isnan(cholesky_pivots(stack)[0][:, 0, 0])
    s = stack[good]
    w, v = np.linalg.eigh(_symmetrized(s))
    root = np.matmul(v * np.sqrt(np.maximum(w, 0.0))[:, None, :], np.swapaxes(v, 1, 2))
    roots = np.full_like(stack, np.nan)
    roots[good] = _symmetrized(root)
    if a.ndim == 2:
        return roots[0] if good[0] else NaO
    return roots


def wald_pivot(theta_hat, theta, h) -> MaybeParam:
    """Quadratic form ``(theta_hat - theta)' h (theta_hat - theta)``."""
    if is_nao(theta_hat) or is_nao(theta) or is_nao(h):
        return NaO
    d = np.atleast_1d(np.asarray(theta_hat, dtype=float)) - np.atleast_1d(
        np.asarray(theta, dtype=float)
    )
    if d.size != np.asarray(h).shape[0]:
        raise ValueError("parameter length does not match the matrix")
    return float(d @ np.asarray(h, dtype=float) @ d)


@dataclass(frozen=True, eq=False)
class ConfidenceRegion:
    """Ellipsoid ``(theta - center)' shape (theta - center) < radius_sq``."""

    center: np.ndarray
    shape: np.ndarray
    radius_sq: float
    level: float

    def contains(self, theta) -> bool:
        return wald_pivot(self.center, theta, self.shape) < self.radius_sq


def confidence_region(fit: MleResult, alpha: float):
    """Wald region from observed information; NaO when the fit or shape fails.

    Center is the estimate, shape the observed information (which must pass
    the positive-definite pivot test), and the squared radius the chi-square
    upper-alpha quantile in the parameter dimension.
    """
    if is_nao(fit.theta_hat) or fit.observed_info is None or spd_factor(fit.observed_info) is None:
        return NaO
    p = fit.theta_hat.size
    return ConfidenceRegion(
        center=fit.theta_hat,
        shape=fit.observed_info,
        radius_sq=chisq_upper_quantile(p, alpha),
        level=1.0 - alpha,
    )


def standardized_estimator(fit: MleResult, psi) -> MaybeParam:
    """``sqrt(observed information) (theta_hat - psi)``, NaO-propagating.

    Under an exactly quadratic likelihood with curvature invariant in law
    this is standard normal in every coordinate.
    """
    if is_nao(fit.theta_hat) or fit.observed_info is None or is_nao(psi):
        return NaO
    root = symmetric_sqrt(fit.observed_info)
    if is_nao(root):
        return NaO
    return root @ (fit.theta_hat - np.atleast_1d(np.asarray(psi, dtype=float)))


def restricted_coverage_bound(alpha: float, p_escape: float) -> float:
    """Lower bound on joint coverage-and-containment for a region restricted to W.

    When the estimator pair escapes W with probability at most ``p_escape``,
    the Wald region's asymptotic coverage within W is at least
    ``1 - alpha - p_escape`` (clamped at zero).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not 0.0 <= p_escape <= 1.0:
        raise ValueError("p_escape must lie in [0, 1]")
    return max(0.0, 1.0 - alpha - p_escape)
