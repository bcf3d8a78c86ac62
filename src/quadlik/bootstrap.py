"""Parametric bootstrap of approximately pivotal quantities.

The single bootstrap simulates datasets from the fitted model, refits each,
and collects a pivot; its empirical quantile calibrates the nominal
chi-square quantile.  The double bootstrap nests one more level at each
outer refit to diagnose the single bootstrap itself: all of its inner
replicates form a second level.  Each level block is one data stack,
drawn for all its centres by one :func:`~quadlik.parallel.draw` call (one
key pass, one ``simulate_stack`` call), refit by one
:func:`~quadlik.inference.fit_stack`, each Newton run starting at the
centre its data set was drawn at, and pivoted in one call on the refits
and their observed informations.
Replicates draw from per-index streams, so results do not depend on the
order of the draws; NaO fits and pivots are counted, never silently
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LikModel
from .inference import chisq_upper_quantile, fit_stack
from .parallel import draw

# a pivot maps a level's refits (m, p) and informations (m, p, p), as fit_stack
# gives them, and their centres (m, p) to (m,) values, NaN where a fit is NaO
PivotFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

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


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Nominal chi-square quantile next to the bootstrap-calibrated one."""

    nominal_quantile: float
    calibrated_quantile: float
    level: float


def make_wald_pivot(model: LikModel) -> PivotFn:
    """Default pivot: Wald quadratic form in the refit's observed information.

    Row ``j`` is ``wald_pivot(thetas[j], theta_hats[j], infos[j])``.
    """

    def pivot(thetas: np.ndarray, infos: np.ndarray, theta_hats: np.ndarray) -> np.ndarray:
        d = thetas - theta_hats
        with np.errstate(over="ignore", invalid="ignore"):
            # wald_pivot's ``d @ h @ d`` row by row, bit for bit (einsum is not)
            return np.matmul(np.matmul(d[:, None, :], infos), d[:, :, None])[:, 0, 0]

    return pivot


# nothing in the package calls it; bench/tracing.py binds it by name
def _one_replicate(model: LikModel, theta_hat: np.ndarray, pivot: PivotFn, data):
    """Row 0 of :func:`_bootstrap_level` on the stack of one simulated data set."""
    center = np.asarray(theta_hat, dtype=float).reshape(1, -1)
    thetas, infos = fit_stack(model, [data], center)[:2]
    value = pivot(thetas, infos, center)[0]
    return thetas[0], value if np.isfinite(value) else np.nan


def _bootstrap_level(
    model: LikModel, centers, B: int, pivot: PivotFn, seed: int, paths: list
) -> tuple[np.ndarray, np.ndarray]:
    """One bootstrap level: B datasets at each center, drawn as one data stack
    by one :func:`~quadlik.parallel.draw` call.

    Dataset ``j`` of center ``c`` is drawn from the stream ``(seed,
    *paths[c], j)`` and refit by Newton from ``c``, the parameter it was
    drawn at.  Returns the refits ``(len(centers), B, p)`` (NaN where not
    converged) and pivot values ``(len(centers), B)`` (NaN where NaO), each
    against its center, in stream order.
    """
    starts = np.repeat(np.asarray(centers, dtype=float), B, axis=0)
    thetas, infos = fit_stack(model, draw(model, centers, B, seed, paths), starts)[:2]
    values = pivot(thetas, infos, starts)
    values = np.where(np.isfinite(values), values, np.nan)
    return thetas.reshape(len(centers), B, -1), values.reshape(len(centers), B)


def _samples(values: np.ndarray, seed: int) -> PivotSamples:
    """A level's pivot values, the non-finite (NaO) ones counted."""
    ok = np.isfinite(values)
    return PivotSamples(values[ok], values.size - int(np.count_nonzero(ok)), seed, values.size)


def parametric_bootstrap(
    model: LikModel,
    theta_hat,
    B: int,
    pivot: PivotFn,
    seed: int,
) -> PivotSamples:
    """Simulate at the fit, refit each dataset, and collect pivot values.

    All B refits are one :func:`~quadlik.inference.fit_stack`, each Newton
    run starting at ``theta_hat``, the parameter its data were drawn at;
    replicates whose fit is NaO, or whose pivot is NaN or infinite, are
    counted in ``n_nao``.  The pivot is one call over the level, on the refits and
    their observed informations (see :data:`PivotFn`).  Output is a pure
    function of (seed, B).
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if not model.domain.contains(th):
        raise ValueError("theta_hat lies outside the model domain")
    _, values = _bootstrap_level(model, [th], B, pivot, seed, [("bootstrap", 0)])
    return _samples(values[0], seed)


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
    """Outer pivots plus the inner calibration at each outer refit.

    ``inner_quantiles[i]`` is the calibrated quantile of outer refit ``i``'s
    inner level, and ``coverage[i]`` is 1.0 when the outer pivot falls under
    it, else 0.0; both are NaN where anything was NaO.  The mean coverage
    is the prepivoting diagnostic that should sit near the level.
    """

    outer: PivotSamples
    inner_quantiles: np.ndarray
    coverage: np.ndarray
    level: float
    B2: int

    def coverage_rate(self) -> float:
        used = self.coverage[~np.isnan(self.coverage)]
        return float(used.mean()) if used.size else float("nan")


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

    Each of the B1 outer replicates is simulated at ``theta_hat`` and refit
    from it; an inner bootstrap of size B2 at the refit, each inner data set
    refit from that outer refit, calibrates the pivot quantile there, and
    the outer pivot is compared against it.  Both levels are lockstep
    refits: the B1 outer datasets in one, then the B2 inner
    datasets of every converged outer refit, drawn from the streams
    ``(seed, "bootstrap", 1, i, j)``, in blocks of whole outer refits of
    at most ``INNER_LEVEL_ROWS`` rows (results do not depend on the
    blocks).  The pivot is called once per lockstep, as in
    :func:`parametric_bootstrap`.  An outer pivot that is NaO after a
    converged refit still gets its inner level.  Each inner quantile is
    :func:`calibrate`'s, bit for bit, taken for all the inner levels with
    the same number of finite pivots at once.
    """
    if B1 < 1 or B2 < 1:
        raise ValueError("B1 and B2 must be at least 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if not model.domain.contains(th):
        raise ValueError("theta_hat lies outside the model domain")
    thetas, values = _bootstrap_level(model, [th], B1, pivot, seed, [("bootstrap", 0)])
    outer_thetas, outer_values = thetas[0], values[0]
    refit = np.flatnonzero(~np.isnan(outer_thetas[:, 0]))
    inner_values = np.full((B1, B2), np.nan)
    # every inner row's data set is held until its block is refit, so blocks
    # bound the level's memory
    per_block = max(1, INNER_LEVEL_ROWS // B2)
    for k in range(0, refit.size, per_block):
        block = refit[k : k + per_block]
        paths = [("bootstrap", 1, i) for i in block.tolist()]
        inner_values[block] = _bootstrap_level(model, outer_thetas[block], B2, pivot, seed, paths)[1]
    # NaO (NaN) values sort last, so row i's first counts[i] are its sorted finite values
    ordered = np.sort(inner_values, axis=1)
    counts = np.count_nonzero(np.isfinite(inner_values), axis=1)
    quantiles = np.full(B1, np.nan)
    for count in np.unique(counts[counts > 0]).tolist():
        rows = counts == count
        quantiles[rows] = np.quantile(ordered[rows, :count], level, axis=1, method="linear")
    coverage = np.where(np.isnan(outer_values) | np.isnan(quantiles), np.nan, outer_values <= quantiles)
    return DoubleBootstrapReport(_samples(outer_values, seed), quantiles, coverage, level, B2)

