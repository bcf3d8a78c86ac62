"""Exactly quadratic likelihood samplers and their statistical checks.

A model here is a law for the pair (Z, K): curvature K drawn from a law
that does not depend on the parameter, then Z | K normal with mean K theta
and variance K.  The checks verify, on any LikModel, the signatures of that
structure: curvature invariant in law across parameters, standardized score
standard normal, and the shifted likelihood ratio integrating to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .core import LikModel, NaO, StackedEval, StackedObjective, is_nao, quadratic_eval, spd_factor
from .inference import symmetric_sqrt
from .parallel import replicates
from .rng import derive_rng

# ---------------------------------------------------------------------------
# Curvature laws and draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstantCurvature:
    """Point-mass curvature law: K fixed, symmetric positive definite."""

    k: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("curvature must be a square matrix")
        if spd_factor(k) is None:
            raise ValueError("constant curvature must be positive definite")
        object.__setattr__(self, "k", (k + k.T) / 2.0)

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
        scale = np.asarray(self.scale, dtype=float)
        if scale.ndim != 2 or scale.shape[0] != scale.shape[1]:
            raise ValueError("scale must be a square matrix")
        scale = (scale + scale.T) / 2.0
        lower = spd_factor(scale)
        if lower is None:
            raise ValueError("scale must be positive definite")
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


@dataclass(frozen=True, eq=False)
class LamnDraw:
    """One realized pair (z, k) with k positive definite."""

    z: np.ndarray
    k: np.ndarray

    def __post_init__(self) -> None:
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        k = np.asarray(self.k, dtype=float)
        if k.shape != (z.size, z.size):
            raise ValueError("curvature shape does not match z")
        if spd_factor(k) is None:
            raise ValueError("draw curvature must be positive definite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "k", (k + k.T) / 2.0)


def _bartlett(law: WishartCurvature, chi: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Wishart matrices ``(L C)(L C)'`` from the Bartlett numbers, shape (n, p, p).

    Row i of C has the square roots of ``chi[i]`` on its diagonal and
    ``normals[i]`` in its strict lower triangle.
    """
    p = law.dim
    c = np.zeros((len(chi), p, p))
    c[:, np.arange(p), np.arange(p)] = np.sqrt(chi)
    rows, cols = law._tril
    c[:, rows, cols] = normals
    f = np.einsum("ij,njk->nik", law._lower, c)
    return np.einsum("nik,njk->nij", f, f)


def _lapack_factor(k: np.ndarray) -> np.ndarray | None:
    """``np.linalg.cholesky(k)``, or None when LAPACK rejects any matrix of the stack."""
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        return None


def _sample(spec: LamnSpec, theta, rngs, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` draws from each stream, stacked stream by stream: (z, k).

    Each stream gives its numbers in this order: the p chi-square blocks
    and the strict lower-triangle normals of its ``size`` Bartlett draws, a
    redraw of both when ``np.linalg.cholesky`` rejects one of its K (a
    second rejection raises), then xi.  Only those draws loop over the
    streams; the arithmetic runs once over the whole stack.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.size != spec.dim:
        raise ValueError("theta length does not match spec dimension")
    p, law, n = spec.dim, spec.curvature, len(rngs) * size
    if isinstance(law, ConstantCurvature):
        k = np.broadcast_to(law.k, (n, p, p)).copy()
        factors = np.broadcast_to(spd_factor(law.k), k.shape)
    else:
        dofs, n_tril = law.dof - np.arange(p), law._tril[0].size
        chi, normals = [None] * len(rngs), [None] * len(rngs)

        def numbers(s: int) -> None:
            chi[s] = [rngs[s].chisquare(dof, size) for dof in dofs]
            normals[s] = rngs[s].standard_normal((size, n_tril))

        def wishart() -> np.ndarray:
            c = np.array(chi).reshape(len(rngs), p, size).transpose(0, 2, 1)
            return _bartlett(law, c.reshape(n, p), np.array(normals).reshape(n, n_tril))

        for s in range(len(rngs)):
            numbers(s)
        k = wishart()
        factors = _lapack_factor(k)
        if factors is None:
            for s in range(len(rngs)):
                if _lapack_factor(k[s * size : (s + 1) * size]) is None:
                    numbers(s)
            k = wishart()
            factors = _lapack_factor(k)
            if factors is None:
                raise RuntimeError("Wishart draw numerically singular twice in a row")
    xi = np.array([rng.standard_normal((size, p)) for rng in rngs]).reshape(n, p)
    z = np.einsum("nij,j->ni", k, th) + np.einsum("nij,nj->ni", factors, xi)
    return z, k


def sample_lamn_batch(
    spec: LamnSpec, theta, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draws: returns (z, k) of shapes (size, p) and (size, p, p).

    K comes from the curvature law (independent of theta), then Z given K is
    normal with mean K theta and variance K, via a Cholesky factor of K.
    A numerically singular Wishart draw is retried once, then raises.
    """
    return _sample(spec, theta, [rng], size)


def sample_lamn_stack(spec: LamnSpec, theta, rngs) -> np.ndarray:
    """Row i of an ``(m, p + p*p)`` stack is ``sample_lamn(spec, theta, rngs[i])``,
    z then k row-major; every k is tested (and symmetrized) as a LamnDraw's is."""
    z, k = _sample(spec, theta, rngs, 1)
    if np.isnan(spd_factor(k)[:, 0, 0]).any():
        raise ValueError("draw curvature must be positive definite")
    return np.concatenate([z, ((k + np.swapaxes(k, 1, 2)) / 2.0).reshape(len(z), spec.dim**2)], axis=1)


def sample_lamn(spec: LamnSpec, theta, rng: np.random.Generator) -> LamnDraw:
    """One draw of (Z, K) at the given parameter."""
    z, k = _sample(spec, theta, [rng], 1)
    return LamnDraw(z[0], k[0])


def lamn_loglik(draw: LamnDraw, delta):
    """Shifted log likelihood ``delta . z - delta' k delta / 2``; zero at zero."""
    if is_nao(delta):
        return NaO
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if d.size != draw.z.size:
        raise ValueError("delta length does not match the draw")
    return quadratic_eval(0.0, draw.z, draw.k, d).value


# ---------------------------------------------------------------------------
# Statistical checks
# ---------------------------------------------------------------------------


def contiguity_estimate(
    spec: LamnSpec, delta, nsim: int, seed: int, stream: int = 0
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of exp(q(delta)) under theta = 0.

    For a genuine likelihood the mean is exactly one; the estimate lands
    within a few standard errors of it.  ``stream`` separates draws for
    repeated calls under one seed.
    """
    if nsim < 2:
        raise ValueError("nsim must be at least 2")
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    rng = derive_rng(seed, "contiguity", stream)
    z, k = sample_lamn_batch(spec, np.zeros(spec.dim), nsim, rng)
    q = z @ d - 0.5 * np.einsum("i,nij,j->n", d, k, d)
    w = np.exp(q)
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / np.sqrt(nsim))
    return mean, se


def _at(q: StackedObjective, theta: np.ndarray) -> StackedEval:
    """Every data set of a stacked objective evaluated at one fixed point."""
    n = q.n_rows
    return q(np.arange(n), np.tile(theta, (n, 1)))


def model_contiguity_estimate(model: LikModel, psi, delta, nsim: int, seed: int) -> tuple[float, float, int]:
    """Mean and standard error of exp(l(psi + delta) - l(psi)) over fresh data.

    Data are simulated at psi; replicates whose evaluation is NaO are
    dropped and counted.  Returns (mean, se, n_nao).  All replicates are
    evaluated as one stack.
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    d = np.atleast_1d(np.asarray(delta, dtype=float))

    def ratios(datas):
        q = model.stacked_objective(datas)
        base, shifted = _at(q, psi), _at(q, psi + d)
        return np.exp(shifted.packed[:, 0] - base.packed[:, 0]), base.ok & shifted.ok

    arr, n_nao = replicates(model, psi, nsim, seed, ("model-contiguity",), ratios)
    if arr.size < 2:
        raise ValueError("too few finite replicates for a contiguity estimate")
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size)), n_nao


@dataclass(frozen=True, eq=False)
class KsTestReport:
    """Bonferroni-adjusted minimum p-value over scalar summaries."""

    statistic: float
    p_value: float
    per_summary: dict
    n_summaries: int
    n_nao: int

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

    def informations(datas):
        ev = _at(model.stacked_objective(datas), th)
        return -ev.parts(p)[2], ev.ok

    infos, n_nao = replicates(model, th, nsim, seed, (stream,), informations)
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
    Each parameter's replicates are evaluated as one stack.
    """
    sums_a, nao_a = _curvature_summaries(model, theta_a, nsim, seed, "invariance-a")
    sums_b, nao_b = _curvature_summaries(model, theta_b, nsim, seed, "invariance-b")
    per_summary: dict[str, float] = {}
    best_stat = 0.0
    for name in sums_a:
        a, b = sums_a[name], sums_b[name]
        if a.size < 2 or b.size < 2:
            continue
        if np.ptp(a) == 0.0 and np.ptp(b) == 0.0 and a[0] == b[0]:
            stat, pval = 0.0, 1.0  # identical point masses; KS is degenerate here
        else:
            res = stats.ks_2samp(a, b)
            stat, pval = float(res.statistic), float(res.pvalue)
        per_summary[name] = pval
        if stat > best_stat:
            best_stat = stat
    if not per_summary:
        raise ValueError("no usable summaries (all replicates NaO)")
    m = len(per_summary)
    adj = min(1.0, m * min(per_summary.values()))
    return KsTestReport(best_stat, adj, per_summary, m, nao_a + nao_b)


def score_normality_test(model: LikModel, theta, nsim: int, seed: int) -> KsTestReport:
    """Per-coordinate normality of the standardized score at the truth.

    Each replicate computes ``(observed information)^{-1/2} gradient``;
    coordinates are tested against the standard normal by Kolmogorov-
    Smirnov with a Bonferroni-adjusted minimum p-value.  Replicates where
    the information is not positive definite are dropped and counted.  The
    replicates are evaluated as one stack.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    p = th.size

    def standardized_scores(datas):
        ev = _at(model.stacked_objective(datas), th)
        _, gradient, hessian = ev.parts(p)
        scores, ok = np.full((len(datas), p), np.nan), ev.ok.copy()
        for i in np.flatnonzero(ok):
            root = symmetric_sqrt(-hessian[i])
            if is_nao(root):
                ok[i] = False
            else:
                scores[i] = np.linalg.solve(root, gradient[i])
        return scores, ok

    t, n_nao = replicates(model, th, nsim, seed, ("score-normality",), standardized_scores)
    if len(t) < 2:
        raise ValueError("too few finite replicates for a normality test")
    per_summary: dict[str, float] = {}
    best_stat = 0.0
    for j in range(p):
        res = stats.kstest(t[:, j], "norm")
        per_summary[f"coord_{j}"] = float(res.pvalue)
        best_stat = max(best_stat, float(res.statistic))
    adj = min(1.0, p * min(per_summary.values()))
    return KsTestReport(best_stat, adj, per_summary, p, n_nao)
