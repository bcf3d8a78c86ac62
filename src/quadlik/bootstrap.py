"""Parametric bootstrap of approximately pivotal quantities.

The single bootstrap simulates datasets from the fitted model, refits each,
and collects a pivot; its empirical quantile calibrates the nominal
chi-square quantile.  The double bootstrap nests one more level at each
outer refit to diagnose the single bootstrap itself: all of its inner
replicates form a second level.  Each level is one data stack, started
by one ``model.starts`` call, refit in one lockstep safeguarded Newton and
pivoted in one call on the lockstep's final evaluations.
Replicates draw from per-index streams, so results do not depend on the
order of the draws; failed refits become NaO and are counted, never
silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import LikModel, NaO, StackedEval, cholesky_pivots, is_nao
from .inference import chisq_upper_quantile
from .newton import lockstep_fit
from .parallel import draw

# a pivot maps a refit level's final evaluations, its refits (m, p) and their
# centres (m, p) to (m,) values, NaN where a row is NaO
PivotFn = Callable[[StackedEval, np.ndarray, np.ndarray], np.ndarray]

# the most inner replicates of a double bootstrap refit in one lockstep;
# past a few hundred rows a lockstep's per-call cost is already spread thin,
# and larger blocks only hold more rows in memory at once
INNER_LEVEL_ROWS = 2**10


@dataclass(frozen=True, eq=False)
class PivotSamples:
    """Realized pivot values (NaO replicates excluded but counted)."""

    values: np.ndarray
    n_nao: int
    seed: int
    B: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.size + self.n_nao != self.B:
            raise ValueError("values plus NaO count must equal B")
        object.__setattr__(self, "values", values)

    def to_record(self, prefix: str = "pivot") -> dict:
        rec = {
            f"{prefix}_B": self.B,
            f"{prefix}_n_nao": self.n_nao,
            f"{prefix}_seed": self.seed,
        }
        if self.values.size:
            rec[f"{prefix}_mean"] = float(self.values.mean())
            rec[f"{prefix}_max"] = float(self.values.max())
        return rec


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Nominal chi-square quantile next to the bootstrap-calibrated one."""

    nominal_quantile: float
    calibrated_quantile: float
    level: float

    def to_record(self, prefix: str = "calibration") -> dict:
        return {
            f"{prefix}_level": self.level,
            f"{prefix}_nominal_quantile": self.nominal_quantile,
            f"{prefix}_calibrated_quantile": self.calibrated_quantile,
        }


def make_wald_pivot(model: LikModel) -> PivotFn:
    """Default pivot: Wald quadratic form in the refit's observed information.

    Row ``j`` is ``wald_pivot(thetas[j], theta_hats[j], info_j)`` for the
    negative Hessian ``info_j`` of the row's evaluation, NaN where that
    evaluation is NaO or ``info_j`` fails the pivot test.
    """

    def pivot(ev: StackedEval, thetas: np.ndarray, theta_hats: np.ndarray) -> np.ndarray:
        info = -ev.parts(thetas.shape[1])[2]
        d = thetas - theta_hats
        with np.errstate(over="ignore", invalid="ignore"):
            lower, _ = cholesky_pivots(info)
            # wald_pivot's ``d @ h @ d`` row by row, bit for bit (einsum is not)
            values = np.matmul(np.matmul(d[:, None, :], info), d[:, :, None])[:, 0, 0]
        return np.where(ev.ok & ~np.isnan(lower[:, 0, 0]), values, np.nan)

    return pivot


def _refit(model: LikModel, theta_hats: np.ndarray, pivot: PivotFn, stack) -> list:
    """Refit a data stack in one lockstep Newton from ``model.starts``, then pivot
    row ``j`` on its final evaluation against ``theta_hats[j]``.

    Returns ``(theta_star, value)`` per data set, NaO where the start (a NaN
    row) or the refit failed or the pivot is NaN or infinite.
    """
    thetas, traces, final = lockstep_fit(model.stacked_objective(stack), model.starts(stack))
    values = pivot(final, thetas, theta_hats).tolist()
    return [
        (NaO, NaO) if is_nao(trace) or not trace.converged else (theta_star, v if np.isfinite(v) else NaO)
        for theta_star, trace, v in zip(thetas, traces, values)
    ]


# nothing in the package calls it; bench/tracing.py binds it by name
def _one_replicate(model: LikModel, theta_hat: np.ndarray, pivot: PivotFn, data):
    """Refit a simulated dataset and evaluate the pivot; NaO on any failure."""
    theta_hats = np.asarray(theta_hat, dtype=float).reshape(1, -1)
    return _refit(model, theta_hats, pivot, model.stack_data([data]))[0]


def _bootstrap_level(model: LikModel, centers: list, B: int, pivot: PivotFn, seed: int, paths: list) -> list:
    """One bootstrap level: B datasets at each center, joined in one data stack.

    Dataset ``j`` of center ``c`` is drawn from the stream ``(seed,
    *paths[c], j)``.  Returns, per center, its B ``(theta_star, value)``
    pairs from :func:`_refit` against that center, in stream order.
    """
    stacks = [draw(model, center, B, seed, path) for center, path in zip(centers, paths)]
    stack = np.concatenate(stacks) if isinstance(stacks[0], np.ndarray) else [d for s in stacks for d in s]
    pairs = _refit(model, np.repeat(np.asarray(centers, dtype=float), B, axis=0), pivot, stack)
    return [pairs[c * B : (c + 1) * B] for c in range(len(centers))]


def _samples(pairs: list, seed: int) -> PivotSamples:
    """The level's pivot values, NaO ones counted."""
    values = [v for _, v in pairs if not is_nao(v)]
    return PivotSamples(np.asarray(values), len(pairs) - len(values), seed, len(pairs))


def parametric_bootstrap(
    model: LikModel,
    theta_hat,
    B: int,
    pivot: PivotFn,
    seed: int,
) -> PivotSamples:
    """Simulate at the fit, refit each dataset, and collect pivot values.

    All B refits run in one lockstep safeguarded Newton from
    ``model.starts``; replicates whose refit fails to converge, or whose
    pivot is NaN or infinite, are counted in ``n_nao``.  The pivot is one
    call over the level, on each refit's last lockstep evaluation (see
    :data:`PivotFn`).  Output is a pure function of (seed, B).
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if not model.domain.contains(th):
        raise ValueError("theta_hat lies outside the model domain")
    (pairs,) = _bootstrap_level(model, [th], B, pivot, seed, [("bootstrap", 0)])
    return _samples(pairs, seed)


def calibrate(samples: PivotSamples, level: float, p: int) -> CalibrationResult:
    """Empirical upper quantile of the pivots next to the chi-square nominal.

    The empirical quantile uses linear interpolation between order
    statistics (the common "type 7" convention), for reproducibility across
    implementations.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    if samples.values.size == 0:
        raise ValueError("cannot calibrate: every replicate was NaO")
    calibrated = float(np.quantile(np.sort(samples.values), level, method="linear"))
    nominal = chisq_upper_quantile(p, 1.0 - level)
    return CalibrationResult(nominal, calibrated, level)


@dataclass(frozen=True, eq=False)
class DoubleBootstrapReport:
    """Outer pivots plus inner calibrations at each outer refit.

    ``coverage_indicators[i]`` is 1 when the outer pivot falls under its own
    inner calibrated quantile (None where anything was NaO); their mean is
    the prepivoting diagnostic that should sit near the level.
    """

    outer: PivotSamples
    per_outer_calibrations: list
    coverage_indicators: list
    level: float
    B2: int

    def coverage_rate(self) -> float:
        used = [c for c in self.coverage_indicators if c is not None]
        if not used:
            return float("nan")
        return float(np.mean(used))

    def to_record(self, prefix: str = "double") -> dict:
        rec = self.outer.to_record(f"{prefix}_outer")
        rec[f"{prefix}_level"] = self.level
        rec[f"{prefix}_B2"] = self.B2
        rec[f"{prefix}_coverage_rate"] = self.coverage_rate()
        quantiles = [c.calibrated_quantile for c in self.per_outer_calibrations if c is not None]
        if quantiles:
            rec[f"{prefix}_inner_quantile_mean"] = float(np.mean(quantiles))
            rec[f"{prefix}_inner_quantile_sd"] = float(np.std(quantiles))
        return rec


def double_bootstrap(
    model: LikModel,
    theta_hat,
    B1: int,
    B2: int,
    pivot: PivotFn,
    seed: int,
    level: float = 0.95,
) -> DoubleBootstrapReport:
    """Nested bootstrap: an inner bootstrap at each outer refit.

    Each of the B1 outer replicates is simulated at ``theta_hat`` and refit;
    an inner bootstrap of size B2 at the refit calibrates the pivot quantile
    there, and the outer pivot is compared against it.  Both levels are
    lockstep refits: the B1 outer datasets in one, then the B2 inner
    datasets of every converged outer refit, drawn from the streams
    ``(seed, "bootstrap", 1, i, j)``, in blocks of whole outer refits of
    at most ``INNER_LEVEL_ROWS`` rows (results do not depend on the
    blocks).  The pivot is called once per lockstep, as in
    :func:`parametric_bootstrap`.  An outer pivot that is NaO after a
    converged refit still gets its inner level.
    """
    if B1 < 1 or B2 < 1:
        raise ValueError("B1 and B2 must be at least 1")
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if not model.domain.contains(th):
        raise ValueError("theta_hat lies outside the model domain")
    p = th.size
    (outer_pairs,) = _bootstrap_level(model, [th], B1, pivot, seed, [("bootstrap", 0)])
    refit = [i for i, (theta_star, _) in enumerate(outer_pairs) if not is_nao(theta_star)]
    inner_at = {}
    # every inner row's data set and Newton trace are held until its block
    # is refit, so blocks bound the level's memory
    per_block = max(1, INNER_LEVEL_ROWS // B2)
    for k in range(0, len(refit), per_block):
        block = refit[k : k + per_block]
        centers = [outer_pairs[i][0] for i in block]
        paths = [("bootstrap", 1, i) for i in block]
        inner = _bootstrap_level(model, centers, B2, pivot, seed, paths)
        inner_at.update(zip(block, inner))
    calibrations: list[Optional[CalibrationResult]] = []
    indicators: list[Optional[int]] = []
    for i, (_, value) in enumerate(outer_pairs):
        samples = _samples(inner_at.get(i, []), seed)
        if samples.values.size == 0:
            calibrations.append(None)
            indicators.append(None)
            continue
        cal = calibrate(samples, level, p)
        calibrations.append(cal)
        indicators.append(None if is_nao(value) else int(value <= cal.calibrated_quantile))
    return DoubleBootstrapReport(_samples(outer_pairs, seed), calibrations, indicators, level, B2)


def importance_reweight(g_values, logratio_values) -> float:
    """Mean of ``g * exp(logratio)``: expectation under a shifted parameter.

    Reweighting draws made at one parameter by the likelihood ratio gives
    expectations at the shifted parameter without new simulation.  A
    non-finite weight raises with the offending index.
    """
    g = np.asarray(g_values, dtype=float)
    lr = np.asarray(logratio_values, dtype=float)
    if g.shape != lr.shape or g.ndim != 1:
        raise ValueError("g and logratio must be one-dimensional and equally long")
    if g.size < 1:
        raise ValueError("need at least one value")
    with np.errstate(over="ignore"):
        products = g * np.exp(lr)
    bad = np.flatnonzero(~np.isfinite(products))
    if bad.size:
        raise ValueError(f"non-finite reweighted term at index {int(bad[0])}")
    return float(products.mean())
