"""Parametric bootstrap of approximately pivotal quantities.

The single bootstrap simulates datasets from the fitted model, refits each,
and collects a pivot; its empirical quantile calibrates the nominal
chi-square quantile.  The double bootstrap nests one more level at each
outer refit to diagnose the single bootstrap itself.  Each level refits all
of its datasets in one lockstep safeguarded Newton over the model's stacked
objective.  Replicates draw from per-index streams, so results do not
depend on worker scheduling; failed refits become NaO and are counted,
never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import LikModel, NaO, is_nao, spd_factor
from .inference import chisq_upper_quantile, wald_pivot
from .newton import lockstep_maximize
from .parallel import replicates

PivotFn = Callable[[object, np.ndarray, np.ndarray], object]
StartFn = Callable[[object], np.ndarray]


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
    """Default pivot: Wald quadratic form in the refit's observed information."""

    def pivot(data, theta_star: np.ndarray, theta_hat: np.ndarray):
        ev = model.objective(data)(theta_star)
        if is_nao(ev):
            return NaO
        info = -ev.hessian
        if spd_factor(info) is None:
            return NaO
        return wald_pivot(theta_star, theta_hat, info)

    return pivot


def _started(start: StartFn, data):
    """The refit's start for a simulated dataset; NaO when it cannot be formed."""
    try:
        x0 = start(data)
    except (ValueError, np.linalg.LinAlgError):
        return NaO
    return NaO if is_nao(x0) else np.atleast_1d(np.asarray(x0, dtype=float))


def _refit(model: LikModel, theta_hat: np.ndarray, pivot: PivotFn, datas: list, starts: list) -> list:
    """Refit datasets in one lockstep Newton and take the pivot at each converged refit.

    Returns ``(theta_star, value)`` per dataset, NaO where the refit or the
    pivot failed.  The pivot sees each dataset as the stacked objective
    holds it, so the animal model's response is rotated once per dataset.
    """
    if not datas:
        return []
    q = model.stacked_objective(datas)
    thetas, traces = lockstep_maximize(q, np.array(starts))
    out = []
    for held, theta_star, trace in zip(q.data, thetas, traces):
        if is_nao(trace) or not trace.converged:
            out.append((NaO, NaO))
            continue
        value = pivot(held, theta_star, theta_hat)
        out.append((theta_star, NaO if is_nao(value) or not np.isfinite(value) else float(value)))
    return out


def _one_replicate(
    model: LikModel,
    theta_hat: np.ndarray,
    pivot: PivotFn,
    start: StartFn,
    data,
):
    """Refit a simulated dataset and evaluate the pivot; NaO on any failure."""
    x0 = _started(start, data)
    if is_nao(x0):
        return NaO, NaO
    return _refit(model, theta_hat, pivot, [data], [x0])[0]


def _bootstrap_level(
    model: LikModel,
    theta_hat: np.ndarray,
    B: int,
    pivot: PivotFn,
    start: StartFn,
    seed: int,
    path: tuple,
    workers: int,
) -> PivotSamples:
    """Simulate and start each replicate, then refit all of them in lockstep."""

    def one(i: int, data):
        x0 = _started(start, data)
        return NaO if is_nao(x0) else (data, x0)

    started, _ = replicates(model, theta_hat, B, seed, path, one, workers)
    refits = _refit(model, theta_hat, pivot, [d for d, _ in started], [x0 for _, x0 in started])
    values = [v for _, v in refits if not is_nao(v)]
    return PivotSamples(np.asarray(values), B - len(values), seed, B)


def parametric_bootstrap(
    model: LikModel,
    theta_hat,
    B: int,
    pivot: PivotFn,
    start: StartFn,
    seed: int,
    workers: int = 1,
) -> PivotSamples:
    """Simulate at the fit, refit each dataset, and collect pivot values.

    All B refits run in one lockstep safeguarded Newton from
    ``start(data)``; replicates whose refit fails to converge, or whose
    pivot is NaO or non-finite, are counted in ``n_nao``.  The pivot gets
    each dataset as the stacked objective holds it (the animal model's
    :class:`RotatedResponse`).  Output is a pure function of (seed, B),
    independent of ``workers``.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if not model.domain.contains(th):
        raise ValueError("theta_hat lies outside the model domain")
    return _bootstrap_level(model, th, B, pivot, start, seed, ("bootstrap", 0), workers)


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
    start: StartFn,
    seed: int,
    level: float = 0.95,
    workers: int = 1,
) -> DoubleBootstrapReport:
    """Nested bootstrap: an inner bootstrap at each outer refit.

    Each of the B1 outer replicates is simulated at ``theta_hat`` and refit;
    an inner bootstrap of size B2 at the refit calibrates the pivot quantile
    there, and the outer pivot is compared against it.
    """
    if B1 < 1 or B2 < 1:
        raise ValueError("B1 and B2 must be at least 1")
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if not model.domain.contains(th):
        raise ValueError("theta_hat lies outside the model domain")
    p = th.size

    def one(i: int, data):
        theta_star, value = _one_replicate(model, th, pivot, start, data)
        if is_nao(theta_star):
            return value, None
        inner = _bootstrap_level(model, theta_star, B2, pivot, start, seed, ("bootstrap", 1, i), 1)
        return value, inner

    results, _ = replicates(model, th, B1, seed, ("bootstrap", 0), one, workers)
    outer_values = [v for v, _ in results if not is_nao(v)]
    outer = PivotSamples(np.asarray(outer_values), B1 - len(outer_values), seed, B1)
    calibrations: list[Optional[CalibrationResult]] = []
    indicators: list[Optional[int]] = []
    for value, inner in results:
        if inner is None or inner.values.size == 0:
            calibrations.append(None)
            indicators.append(None)
            continue
        cal = calibrate(inner, level, p)
        calibrations.append(cal)
        indicators.append(None if is_nao(value) else int(value <= cal.calibrated_quantile))
    return DoubleBootstrapReport(outer, calibrations, indicators, level, B2)


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
