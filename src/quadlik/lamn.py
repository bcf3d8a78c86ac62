"""Exactly quadratic likelihood samplers and their statistical checks.

A model here is a law for the pair (Z, K): curvature K drawn from a law
that does not depend on the parameter, then Z | K normal with mean K theta
and variance K.  The checks verify, on any LikModel, the signatures of that
structure: curvature invariant in law across parameters, standardized score
standard normal, and the shifted likelihood ratio integrating to one.
Each check on a LikModel draws its replicates as one data stack with
:func:`~quadlik.parallel.draw`, evaluates every row at its points in one
stacked call, and counts the rows that are NaO.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .core import LikModel, StackedEval, _centres, cholesky_pivots, shifted_stack, spd_matrix
from .inference import symmetric_sqrt
from .parallel import draw
from .rng import derive_rng

# ---------------------------------------------------------------------------
# Curvature laws and draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstantCurvature:
    """Point-mass curvature law: K fixed, symmetric positive definite.  Its
    Cholesky factor is computed once here, for every draw."""

    k: np.ndarray

    def __post_init__(self) -> None:
        k, lower = spd_matrix(self.k, "constant curvature")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_lower", lower)

    @property
    def dim(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True, eq=False)
class WishartCurvature:
    """Wishart curvature law with real degrees of freedom and SPD scale.

    dof > dim - 1 keeps draws almost surely positive definite.  The scale's
    Cholesky factor and the strict lower-triangle indices are computed once
    here, for every Bartlett draw.
    """

    dof: float
    scale: np.ndarray

    def __post_init__(self) -> None:
        scale, lower = spd_matrix(self.scale, "scale")
        if not float(self.dof) > scale.shape[0] - 1:
            raise ValueError("dof must exceed dim - 1")
        object.__setattr__(self, "dof", float(self.dof))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "_tril", np.tril_indices(scale.shape[0], k=-1))

    @property
    def dim(self) -> int:
        return self.scale.shape[0]


@dataclass(frozen=True, eq=False)
class LamnSpec:
    """Dimension plus curvature law; the full data law given any parameter."""

    dim: int
    curvature: ConstantCurvature | WishartCurvature

    def __post_init__(self) -> None:
        if int(self.dim) != self.curvature.dim:
            raise ValueError("spec dimension does not match the curvature law")
        object.__setattr__(self, "dim", int(self.dim))


def _bartlett(law: WishartCurvature, chi: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Wishart matrices ``(L C)(L C)'`` from the Bartlett numbers, shape (n, p, p).

    Row i of C has the square roots of ``chi[i]`` on its diagonal and
    ``normals[i]`` in its strict lower triangle.  Entries (i, j) and (j, i)
    sum the same products in the same order: exactly symmetric.
    """
    p = law.dim
    c = np.zeros((len(chi), p, p))
    c[:, np.arange(p), np.arange(p)] = np.sqrt(chi)
    rows, cols = law._tril
    c[:, rows, cols] = normals
    f = np.einsum("ij,njk->nik", law._lower, c)
    return np.einsum("nik,njk->nij", f, f)


def _sample(spec: LamnSpec, centers, streams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` draws from each stream, stacked stream by stream: (z, k).  The
    streams are split evenly among the ``centers`` as
    :meth:`~quadlik.core.LikModel.simulate_stack` splits them.

    Each stream gives its numbers in one pass: the p chi-square blocks of
    its ``size`` Bartlett draws (scalar draws at size 1, bit-equal to
    ``chisquare(dof, 1)[0]``), then one ``standard_normal`` call for their
    strict lower-triangle normals followed by xi.  Only those draws loop
    over the streams; the arithmetic, with one
    :func:`~quadlik.core.cholesky_pivots` factor of every K, runs once over
    the whole stack.  A K that fails that pivot test, as it would alone,
    gets an all-NaN factor, so its z is NaN, an NaO row; it is never redrawn.
    """
    p, law, m = spec.dim, spec.curvature, len(streams)
    ths = np.repeat(_centres(centers, m, p), size, axis=0)
    n = m * size
    if isinstance(law, ConstantCurvature):
        k = np.broadcast_to(law.k, (n, p, p)).copy()
        factors = np.broadcast_to(law._lower, k.shape)
        xi = np.empty((m, size * p))
        for rng, row in zip(streams, xi):
            rng.standard_normal(out=row)
    else:
        dofs, n_tril = (law.dof - np.arange(p)).tolist(), law._tril[0].size
        chi: list = []
        per_dof = (dofs,) if size == 1 else (dofs, [size] * p)
        normals = np.empty((m, size * (n_tril + p)))
        for rng, row in zip(streams, normals):
            chi.extend(map(rng.chisquare, *per_dof))
            rng.standard_normal(out=row)
        c = np.reshape(chi, (m, p, size)).transpose(0, 2, 1).reshape(n, p)
        k = _bartlett(law, c, normals[:, : size * n_tril].reshape(n, n_tril))
        factors = cholesky_pivots(k)[0]
        xi = normals[:, size * n_tril :]
    z = np.einsum("nij,nj->ni", k, ths) + np.einsum("nij,nj->ni", factors, xi.reshape(n, p))
    return z, k


def sample_lamn_batch(
    spec: LamnSpec, theta, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draws: returns (z, k) of shapes (size, p) and (size, p, p).

    K comes from the curvature law (independent of theta), then Z given K is
    normal with mean K theta and variance K, via a Cholesky factor of K.
    Where a Wishart draw's K fails the pivot test, that draw's z is NaN.
    """
    return _sample(spec, [theta], [rng], size)


def sample_lamn_stack(spec: LamnSpec, centers, streams) -> np.ndarray:
    """One draw of (Z, K) per stream as the rows of an ``(m, p + p*p)`` stack,
    z then k row-major, k as drawn: row i from the i-th stream, at its
    centre of ``centers`` (split as in :func:`_sample`).  A row whose K fails
    the pivot test has a NaN z, an NaO row."""
    z, k = _sample(spec, centers, streams, 1)
    return np.concatenate([z, k.reshape(len(z), spec.dim**2)], axis=1)


def sample_lamn(spec: LamnSpec, theta, rng: np.random.Generator) -> np.ndarray:
    """One draw of (Z, K) at the given parameter: row 0 of
    :func:`sample_lamn_stack` on ``rng``, a data row."""
    return sample_lamn_stack(spec, [theta], [rng])[0]


# ---------------------------------------------------------------------------
# Statistical checks
# ---------------------------------------------------------------------------


def _mean_se(kept: np.ndarray, n: int) -> tuple[float, float, int]:
    """Mean and standard error of the values ``kept`` from ``n`` replicates,
    and the number dropped as NaO: ``(mean, se, n_nao)``, the mean and se NaN
    (an NaO check) when fewer than 2 values are kept."""
    if kept.size < 2:
        return math.nan, math.nan, n - kept.size
    return float(kept.mean()), float(kept.std(ddof=1) / np.sqrt(kept.size)), n - kept.size


def contiguity_estimate(spec: LamnSpec, delta, nsim: int, seed: int, stream: int = 0) -> tuple[float, float, int]:
    """Monte Carlo mean and standard error of exp(q(delta)) under theta = 0.

    For a genuine likelihood the mean is exactly one; the estimate lands
    within a few standard errors of it.  ``stream`` separates draws for
    repeated calls under one seed.  Draws with a NaN z (their K failed the
    pivot test) are dropped and counted: returns (mean, se, n_nao), as
    :func:`model_contiguity_estimate` does, NaN where fewer than 2 remain.
    """
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    rng = derive_rng(seed, "contiguity", stream)
    z, k = sample_lamn_batch(spec, np.zeros(spec.dim), nsim, rng)
    q = z @ d - 0.5 * np.einsum("i,nij,j->n", d, k, d)
    # a failed K's factor is all NaN, and so is every entry of its z
    return _mean_se(np.exp(q[~np.isnan(z[:, 0])]), nsim)


def _drawn_at(model: LikModel, theta, nsim: int, seed: int, path: tuple) -> StackedEval:
    """The nsim data sets :func:`~quadlik.parallel.draw` gives at theta, every
    one evaluated at theta in one stacked call."""
    q = model.stacked_objective(draw(model, [theta], nsim, seed, [path]))
    return q(np.arange(nsim), np.tile(theta, (nsim, 1)))


def model_contiguity_estimate(model: LikModel, psi, delta, nsim: int, seed: int) -> tuple[float, float, int]:
    """Mean and standard error of exp(l(psi + delta) - l(psi)) over fresh data.

    Data are simulated at psi and their shifts (:func:`~quadlik.core.shifted_stack`)
    evaluated at delta as one stack; replicates that are NaO are dropped and
    counted.  Returns (mean, se, n_nao), the mean and se NaN (an NaO check)
    when fewer than 2 replicates remain.
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    shifted, _ = shifted_stack(model, draw(model, [psi], nsim, seed, [("model-contiguity",)]), psi)
    ev = shifted(np.arange(nsim), np.tile(np.broadcast_to(delta, psi.shape), (nsim, 1)))
    return _mean_se(np.exp(ev.packed[ev.ok, 0]), nsim)


@dataclass(frozen=True, eq=False)
class KsTestReport:
    """Bonferroni-adjusted minimum p-value over scalar summaries."""

    statistic: float
    p_value: float
    per_summary: dict
    n_summaries: int
    n_nao: int

    @classmethod
    def bonferroni(cls, tests: dict, n_nao: int) -> "KsTestReport":
        """The report of KS tests given as summary name -> (statistic, p-value):
        the largest statistic, and the smallest p-value times the number of
        tests (at most 1).  With no tests both are NaN, an NaO check."""
        if not tests:
            return cls(math.nan, math.nan, {}, 0, n_nao)
        per_summary = {name: float(p) for name, (_, p) in tests.items()}
        statistic = max([0.0] + [float(s) for s, _ in tests.values()])
        return cls(statistic, min(1.0, len(tests) * min(per_summary.values())), per_summary, len(tests), n_nao)

    def to_record(self, prefix: str) -> dict:
        rec = {
            f"{prefix}_statistic": self.statistic,
            f"{prefix}_p_value": self.p_value,
            f"{prefix}_n_summaries": self.n_summaries,
            f"{prefix}_n_nao": self.n_nao,
        }
        for name, p in self.per_summary.items():
            rec[f"{prefix}_p_{name}"] = p
        return rec


def _curvature_summaries(model: LikModel, theta, nsim: int, seed: int, stream: str):
    """Scalar summaries of observed information at the truth, per replicate."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    p = th.size
    ev = _drawn_at(model, th, nsim, seed, (stream,))
    infos, n_nao = -StackedEval.split(ev.packed, p)[2][ev.ok], nsim - int(ev.ok.sum())
    sign, logdet = np.linalg.slogdet(infos)
    entries = {f"info_{i}{j}": infos[:, i, j] for i in range(p) for j in range(i, p)}
    entries["logdet"] = logdet[sign > 0]
    return entries, n_nao


def hessian_invariance_test(model: LikModel, theta_a, theta_b, nsim: int, seed: int) -> KsTestReport:
    """Two-sample check that observed information has the same law at two truths.

    Simulates at each parameter, summarizes the information matrix (each
    entry and the log determinant), and runs a two-sample Kolmogorov-Smirnov
    test per summary.  Small adjusted p-values mean the curvature law
    depends on the parameter, which rules out the mixed-normal structure.
    Each parameter's replicates are evaluated as one stack.  A summary needs
    2 values at each parameter; with none left the statistic and p-value
    are NaN, an NaO check.
    """
    sums_a, nao_a = _curvature_summaries(model, theta_a, nsim, seed, "invariance-a")
    sums_b, nao_b = _curvature_summaries(model, theta_b, nsim, seed, "invariance-b")
    with warnings.catch_warnings():  # scipy's switch to the asymptotic p-value, which it then returns
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful", RuntimeWarning)
        tests = {name: stats.ks_2samp(a, sums_b[name]) for name, a in sums_a.items() if min(a.size, sums_b[name].size) >= 2}
    return KsTestReport.bonferroni(tests, nao_a + nao_b)


def score_normality_test(model: LikModel, theta, nsim: int, seed: int) -> KsTestReport:
    """Per-coordinate normality of the standardized score at the truth.

    Each replicate computes ``(observed information)^{-1/2} gradient``;
    coordinates are tested against the standard normal by Kolmogorov-
    Smirnov with a Bonferroni-adjusted minimum p-value.  Replicates where
    the information is not positive definite are dropped and counted; with
    fewer than 2 left the statistic and p-value are NaN, an NaO check.  The
    replicates are evaluated as one stack.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    p = th.size
    ev = _drawn_at(model, th, nsim, seed, ("score-normality",))
    _, gradient, hessian = StackedEval.split(ev.packed, p)
    roots = symmetric_sqrt(-hessian)
    ok = ev.ok & ~np.isnan(roots[:, 0, 0])
    t, n_nao = np.linalg.solve(roots[ok], gradient[ok][:, :, None])[:, :, 0], nsim - int(ok.sum())
    tests = {f"coord_{j}": stats.kstest(t[:, j], "norm") for j in range(p)} if len(t) >= 2 else {}
    return KsTestReport.bonferroni(tests, n_nao)
