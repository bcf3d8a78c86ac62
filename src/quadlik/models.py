"""Concrete likelihood models.

Four families: normal location with known curvature (exactly quadratic,
constant Hessian), the Wishart-curvature quadratic sampler wrapped as a
model, the AR(1) autoregression with known innovation variance (exactly
quadratic but with parameter-dependent curvature law), and the pedigree
variance-components trait model.  Two iid helper models (normal location
and exponential rate) support sample-size ladder studies.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    LikModel,
    NaO,
    Objective,
    ObjectiveEval,
    OpenBox,
    StackedObjective,
    quadratic_eval,
    quadratic_stack,
    spd_factor,
)
from .lamn import LamnDraw, LamnSpec, sample_lamn, sample_lamn_stack
from .rng import derive_rng

# ---------------------------------------------------------------------------
# Normal location: exactly quadratic, constant curvature
# ---------------------------------------------------------------------------


class LanNormalLocation(LikModel):
    """Data Z normal with mean K theta and variance K, K known and constant.

    The log likelihood ``z.theta - theta' K theta / 2`` is exactly quadratic
    with constant Hessian, so every asymptotic statement holds exactly.
    """

    def __init__(self, k: np.ndarray):
        k = np.asarray(k, dtype=float)
        lower = spd_factor(k)
        if lower is None:
            raise ValueError("curvature must be symmetric positive definite")
        self.k = (k + k.T) / 2.0
        self._factor = lower
        self.dim_param = k.shape[0]
        self.domain = OpenBox.unbounded(self.dim_param)

    def eval(self, data, theta: np.ndarray) -> ObjectiveEval:
        return quadratic_eval(0.0, np.asarray(data, dtype=float), self.k, theta)

    def stack_data(self, datas) -> np.ndarray:
        """The z vectors as the rows of an ``(m, p)`` stack."""
        return np.asarray(datas, dtype=float).reshape(len(datas), self.dim_param)

    def stacked_objective(self, datas) -> StackedObjective:
        z = self.stack_data(datas)
        return StackedObjective(self.domain, len(z), lambda rows, thetas: quadratic_stack(0.0, z[rows], self.k, thetas))

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return self.k @ th + self._factor @ rng.standard_normal(self.dim_param)

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        return _of_length(flat, self.dim_param)


def lan_normal_location(k: np.ndarray) -> LanNormalLocation:
    """Normal location model with known positive definite curvature."""
    return LanNormalLocation(k)


class WishartLamnModel(LikModel):
    """Quadratic-likelihood model whose data are realized (z, k) pairs.

    The curvature law does not depend on the parameter, so observed
    information is invariant in law and the standardized estimator is
    exactly standard normal.
    """

    def __init__(self, spec: LamnSpec):
        self.spec = spec
        self.dim_param = spec.dim
        self.domain = OpenBox.unbounded(spec.dim)

    def eval(self, data: LamnDraw, theta: np.ndarray) -> ObjectiveEval:
        return quadratic_eval(0.0, data.z, data.k, theta)

    def stack_data(self, datas) -> np.ndarray:
        """Draws as the rows of an ``(m, p + p*p)`` stack, z then k row-major."""
        if isinstance(datas, np.ndarray):
            return datas
        p = self.dim_param
        return np.array([np.concatenate([d.z, d.k.ravel()]) for d in datas]).reshape(len(datas), p + p * p)

    def stacked_objective(self, datas) -> StackedObjective:
        stack, p = self.stack_data(datas), self.dim_param
        z, k = stack[:, :p], stack[:, p:].reshape(len(stack), p, p)
        return StackedObjective(
            self.domain, len(stack), lambda rows, thetas: quadratic_stack(0.0, z[rows], k[rows], thetas)
        )

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> LamnDraw:
        return sample_lamn(self.spec, theta, rng)

    def simulate_stack(self, theta: np.ndarray, rngs) -> np.ndarray:
        return sample_lamn_stack(self.spec, theta, rngs)

    def parse_data(self, flat: np.ndarray) -> LamnDraw:
        p = self.dim_param
        _of_length(flat, p + p * p, "values (z then k row-major)")
        return LamnDraw(flat[:p], flat[p:].reshape(p, p))


def wishart_lamn_model(spec: LamnSpec) -> WishartLamnModel:
    """Wrap a quadratic-likelihood sampler spec as a fittable model."""
    return WishartLamnModel(spec)


# ---------------------------------------------------------------------------
# AR(1): exactly quadratic, curvature law depends on the parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ar1Data:
    """An observed path X_0 ... X_n."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.size < 2:
            raise ValueError("a path needs at least X_0 and X_1")
        if not np.all(np.isfinite(x)):
            raise ValueError("path entries must be finite")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.size - 1


def ar1_simulate(theta: float, n: int, x0: float, rng: np.random.Generator) -> Ar1Data:
    """Simulate X_i = theta X_{i-1} + N(0,1) noise from the fixed start x0."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x = np.empty(n + 1)
    x[0] = float(x0)
    noise = rng.standard_normal(n)
    for i in range(1, n + 1):
        x[i] = theta * x[i - 1] + noise[i - 1]
    return Ar1Data(x)


def ar1_simulate_paths(
    theta: float, n: int, x0: float, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized paths, shape (n_paths, n + 1), all starting at x0."""
    x = np.empty((n_paths, n + 1))
    x[:, 0] = float(x0)
    noise = rng.standard_normal((n_paths, n))
    for i in range(1, n + 1):
        x[:, i] = theta * x[:, i - 1] + noise[:, i - 1]
    return x


def _theta_scalar(theta) -> float:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.size != 1:
        raise ValueError("AR(1) has a single parameter")
    return float(th[0])


def ar1_loglik(data: Ar1Data, theta) -> ObjectiveEval:
    """Gaussian log likelihood of the autoregression (variance known, one).

    value ``-sum (X_i - theta X_{i-1})^2 / 2``; the Hessian
    ``-sum X_{i-1}^2`` does not involve theta at all.
    """
    th = _theta_scalar(theta)
    lag = data.x[:-1]
    resid = data.x[1:] - th * lag
    value = -0.5 * float(resid @ resid)
    grad = float(lag @ resid)
    hess = -float(lag @ lag)
    return ObjectiveEval(value, np.array([grad]), np.array([[hess]]))


def ar1_expected_info(theta: float, n: int, x0: float) -> float:
    """Expected observed information E(sum X_{i-1}^2 | X_0 = x0).

    Computed by the conditional second-moment recursion
    ``e_j = theta^2 e_{j-1} + 1`` with ``e_0 = x0^2``; valid for every real
    theta including |theta| >= 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    e = float(x0) ** 2
    total = e
    for _ in range(n - 1):
        e = theta * theta * e + 1.0
        total += e
    return total


class Ar1Model(LikModel):
    """Autoregression of fixed length as a fittable one-parameter model."""

    def __init__(self, n: int, x0: float = 1.0, random_x0: bool = False):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = int(n)
        self.x0 = float(x0)
        self.random_x0 = bool(random_x0)
        self.dim_param = 1
        self.domain = OpenBox.unbounded(1)

    def eval(self, data: Ar1Data, theta: np.ndarray) -> ObjectiveEval:
        return ar1_loglik(data, theta)

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> Ar1Data:
        x0 = float(rng.standard_normal()) if self.random_x0 else self.x0
        return ar1_simulate(_theta_scalar(theta), self.n, x0, rng)

    def parse_data(self, flat: np.ndarray) -> Ar1Data:
        return Ar1Data(_of_length(flat, self.n + 1, "values for the AR(1) path"))


# ---------------------------------------------------------------------------
# Pedigrees and the numerator relationship matrix
# ---------------------------------------------------------------------------


class PedigreeError(ValueError):
    """A pedigree record violates the ordering or parentage rules.

    ``index`` is the position of the offending record in the pedigree.
    """

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


@dataclass(frozen=True)
class PedigreeRecord:
    id: int
    sire: int | None
    dam: int | None


@dataclass(frozen=True, eq=False)
class Pedigree:
    """Parent records in topological order (parents before offspring)."""

    records: tuple[PedigreeRecord, ...]

    def __post_init__(self) -> None:
        records = tuple(self.records)
        seen: set[int] = set()
        for i, rec in enumerate(records):
            if rec.id in seen:
                raise PedigreeError(i, f"record {rec.id}: duplicate id")
            for parent in (rec.sire, rec.dam):
                if parent is None:
                    continue
                if parent == rec.id:
                    raise PedigreeError(i, f"record {rec.id}: is its own parent")
                if parent not in seen:
                    raise PedigreeError(i, f"record {rec.id}: parent {parent} does not precede it")
            seen.add(rec.id)
        object.__setattr__(self, "records", records)

    @property
    def size(self) -> int:
        return len(self.records)


@dataclass(frozen=True, eq=False)
class RelationshipMatrix:
    """Expected additive genetic covariance structure derived from a pedigree."""

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("relationship matrix must be square")
        if float(np.max(np.abs(a - a.T))) > 1e-12:
            raise ValueError("relationship matrix must be symmetric")
        if np.any(a < -1e-12) or np.any(a > 2.0 + 1e-12):
            raise ValueError("relationship entries must lie in [0, 2]")
        object.__setattr__(self, "a", (a + a.T) / 2.0)

    @property
    def size(self) -> int:
        return self.a.shape[0]

    @cached_property
    def trace(self) -> float:
        """``tr(A)``, computed once per matrix."""
        return float(np.trace(self.a))

    @cached_property
    def trace_sq(self) -> float:
        """``tr(A^2)``, the sum of squared entries of symmetric A, computed once."""
        return float(np.sum(self.a * self.a))

    @cached_property
    def kernel(self) -> "_AnimalKernel":
        """The eigendecomposition of A, one ``eigh`` per matrix."""
        return _AnimalKernel(self)


def relationship_matrix(ped: Pedigree) -> RelationshipMatrix:
    """Tabular recursion over records in pedigree order.

    Off-diagonals average the parent rows (missing parents contribute 0);
    the diagonal is 1 plus half the parents' relationship.
    """
    n = ped.size
    pos = {rec.id: i for i, rec in enumerate(ped.records)}
    a = np.zeros((n, n))
    for i, rec in enumerate(ped.records):
        s = pos[rec.sire] if rec.sire is not None else None
        d = pos[rec.dam] if rec.dam is not None else None
        if i > 0:
            row = np.zeros(i)
            if s is not None:
                row += a[s, :i]
            if d is not None:
                row += a[d, :i]
            row *= 0.5
            a[i, :i] = row
            a[:i, i] = row
        a[i, i] = 1.0 + (0.5 * a[s, d] if s is not None and d is not None else 0.0)
    return RelationshipMatrix(a)


def synthetic_pedigree(
    n_founders: int, n_per_generation: int, n_generations: int, seed: int
) -> Pedigree:
    """Random mating pedigree: founders, then generations of sampled pairs.

    Each child draws two distinct parents uniformly from the previous
    generation.  Deterministic in the seed.
    """
    if n_founders < 2:
        raise ValueError("need at least two founders")
    rng = derive_rng(seed, "pedigree")
    records = [PedigreeRecord(i + 1, None, None) for i in range(n_founders)]
    previous = list(range(1, n_founders + 1))
    next_id = n_founders + 1
    for _ in range(n_generations):
        current: list[int] = []
        for _ in range(n_per_generation):
            i, j = rng.choice(len(previous), size=2, replace=False)
            records.append(PedigreeRecord(next_id, previous[i], previous[j]))
            current.append(next_id)
            next_id += 1
        previous = current
    return Pedigree(tuple(records))


# ---------------------------------------------------------------------------
# Animal model: y = mu 1 + g + e with g ~ N(0, s2 A), e ~ N(0, t2 I)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnimalParams:
    """Mean, additive genetic variance, environmental variance."""

    mu: float
    sigma2: float
    tau2: float

    def __post_init__(self) -> None:
        if not (self.sigma2 > 0 and self.tau2 > 0):
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "tau2", float(self.tau2))


def _weight_sums() -> np.ndarray:
    """Map from the sums of the animal kernel to its outputs.

    With ``w = s2 lam + t2``, ``rt = Q'y - mu Q'1`` and ``o = Q'1``, the
    kernel forms eight weight rows over the eigenvalues, 1/w, 1/w^2,
    rt^2/w, rt^2/w^2, rt^2/w^3, o rt/w, o rt/w^2 and o^2/w, and sums each
    against 1, lam and lam^2 (24 sums, row-major).  Every term of the log
    likelihood is one of those sums times -1, -1/2, 1/2 or 1.  Outputs: the
    value without its log-determinant, the gradient, and the Hessian
    entries (mu,mu), (mu,s2), (mu,t2), (s2,s2), (s2,t2), (t2,t2).
    """
    m = np.zeros((8, 3, 10))
    m[2, 0, 0] = -0.5
    m[5, 0, 1] = 1.0
    m[0, 1, 2], m[3, 1, 2] = -0.5, 0.5
    m[0, 0, 3], m[3, 0, 3] = -0.5, 0.5
    m[7, 0, 4] = -1.0
    m[6, 1, 5] = -1.0
    m[6, 0, 6] = -1.0
    m[1, 2, 7], m[4, 2, 7] = 0.5, -1.0
    m[1, 1, 8], m[4, 1, 8] = 0.5, -1.0
    m[1, 0, 9], m[4, 0, 9] = 0.5, -1.0
    return m.reshape(24, 10)


_WEIGHT_SUMS = _weight_sums()
# output columns that fill the symmetric 3 x 3 Hessian
_HESSIAN_ENTRIES = [4, 5, 6, 5, 7, 8, 6, 8, 9]


class _AnimalKernel:
    """Eigendecomposition of A, shared by likelihood and simulation paths.

    A response enters the likelihood only through its rotation ``Q'y``
    (:meth:`rotate`, one O(N^2) product per data set); given it,
    :meth:`natural_eval` costs O(N) per evaluation.
    """

    def __init__(self, a: RelationshipMatrix):
        self.a = a.a
        self.n = a.size
        lam, q = np.linalg.eigh(self.a)
        self.lam = lam
        self.q = q
        self.ones_t = q.T @ np.ones(self.n)
        self.eig_clamp = float(max(0.0, -lam.min()))
        self._sqrt_lam = np.sqrt(np.clip(lam, 0.0, None))
        self._sim_factor = q * self._sqrt_lam
        self._ones_t_sq = self.ones_t * self.ones_t
        self._rank_floor = self.n * np.finfo(float).eps
        # every sum over eigenvalues is a weight row times 1, lam or lam^2
        self._basis = np.stack([np.ones(self.n), lam, lam * lam], axis=1)

    def rotate(self, y) -> np.ndarray:
        """The response in the eigenbasis of A, ``Q'y``."""
        return self.q.T @ np.asarray(y, dtype=float)

    def natural_eval(self, qty: np.ndarray, mu, s2, t2):
        """(value, gradient, Hessian) over (mu, sigma2, tau2) from ``Q'y``.

        Works over a trailing axis: ``qty`` is ``(..., N)`` and ``mu``,
        ``s2``, ``t2`` are scalars or ``(...)``; the value is ``(...)``, the
        gradient ``(..., 3)`` and the Hessian ``(..., 3, 3)``, all NaN where
        V is numerically singular.
        """
        mu, s2, t2 = np.asarray(mu, dtype=float), np.asarray(s2, dtype=float), np.asarray(t2, dtype=float)
        w = s2[..., None] * self.lam + t2[..., None]
        # relative floor for rank deficiency, absolute floor so 1/w^3 stays finite
        w_min = w.min(axis=-1)
        singular = (w_min <= self._rank_floor * w.max(axis=-1)) | (w_min < 1e-100)
        if singular.any():
            w[singular] = 1.0
        # weight rows (see _WEIGHT_SUMS), filled in place
        weights = np.empty(w.shape[:-1] + (8, self.n))
        inv_w, inv_w2, rt2_w, rt2_w2, rt2_w3, o_rt_w, o_rt_w2, o2_w = (weights[..., r, :] for r in range(8))
        np.divide(1.0, w, out=inv_w)
        np.multiply(inv_w, inv_w, out=inv_w2)
        rt = qty - mu[..., None] * self.ones_t
        np.multiply(rt, inv_w, out=o_rt_w)
        np.multiply(rt, o_rt_w, out=rt2_w)
        np.multiply(o_rt_w, o_rt_w, out=rt2_w2)
        np.multiply(rt2_w2, inv_w, out=rt2_w3)
        np.multiply(o_rt_w, inv_w, out=o_rt_w2)
        np.multiply(o_rt_w, self.ones_t, out=o_rt_w)
        np.multiply(o_rt_w2, self.ones_t, out=o_rt_w2)
        np.multiply(inv_w, self._ones_t_sq, out=o2_w)
        sums = weights @ self._basis
        out = sums.reshape(w.shape[:-1] + (24,)) @ _WEIGHT_SUMS
        value = out[..., 0] - 0.5 * np.log(w).sum(axis=-1)
        grad = out[..., 1:4]
        hess = out[..., _HESSIAN_ENTRIES].reshape(w.shape[:-1] + (3, 3))
        if singular.any():
            value = np.where(singular, np.nan, value)
            grad[singular] = np.nan
            hess[singular] = np.nan
        return value, grad, hess

    def simulate(self, mu: float, sigma2: float, tau2: float, rng: np.random.Generator) -> np.ndarray:
        genetic = np.sqrt(sigma2) * (self._sim_factor @ rng.standard_normal(self.n))
        environment = np.sqrt(tau2) * rng.standard_normal(self.n)
        return mu + genetic + environment

    def simulate_rotated(self, mu: float, sigma2: float, tau2: float, rngs) -> np.ndarray:
        """``Q'y`` of one :meth:`simulate` draw per stream, shape (len(rngs), N).

        Each stream draws the two normal vectors of ``simulate`` in its
        order; ``Q'y = mu Q'1 + sqrt(sigma2) sqrt(lam) z1 + sqrt(tau2) Q'z2``
        is then formed for the whole stack with one product, without forming
        y.  Rows agree with ``rotate(simulate(...))`` up to rounding.
        """
        z1, z2 = np.empty((2, len(rngs), self.n))
        for rng, genetic, environment in zip(rngs, z1, z2):
            rng.standard_normal(out=genetic)
            rng.standard_normal(out=environment)
        qty = z2 @ self.q
        qty *= np.sqrt(tau2)
        z1 *= np.sqrt(sigma2) * self._sqrt_lam
        qty += z1
        qty += mu * self.ones_t
        return qty


def animal_loglik(a: RelationshipMatrix, y, params: AnimalParams) -> ObjectiveEval:
    """Gaussian log likelihood over (mu, sigma2, tau2), constants dropped.

    Computed through the eigendecomposition of A (``a.kernel``, computed
    once per matrix); a numerically singular covariance gives NaO.
    """
    y = np.asarray(y, dtype=float)
    if y.size != a.size:
        raise ValueError("response length does not match the pedigree")
    kernel = a.kernel
    value, grad, hess = kernel.natural_eval(kernel.rotate(y), params.mu, params.sigma2, params.tau2)
    if np.isnan(value):
        return NaO
    return ObjectiveEval(value, grad, hess)


def animal_simulate(a: RelationshipMatrix, params, rng: np.random.Generator) -> np.ndarray:
    """Draw a trait vector mu + genetic + environmental noise.

    ``params`` is an AnimalParams or a plain (mu, sigma2, tau2) triple; the
    triple form admits zero variances, a boundary allowed for simulation
    only.  Negative eigenvalues of A (rounding artifacts) are clamped to
    zero in the simulation factor; the clamp magnitude is available as
    ``AnimalModel.eig_clamp``.
    """
    if isinstance(params, AnimalParams):
        mu, s2, t2 = params.mu, params.sigma2, params.tau2
    else:
        mu, s2, t2 = (float(v) for v in params)
        if s2 < 0 or t2 < 0:
            raise ValueError("variances may not be negative")
    return a.kernel.simulate(mu, s2, t2, rng)


def logit_heritability(params: AnimalParams) -> float:
    """log sigma2 - log tau2, the unconstrained variance-ratio transform."""
    return float(np.log(params.sigma2) - np.log(params.tau2))


def logit_heritability_se(params: AnimalParams, observed_info: np.ndarray) -> float:
    """Delta-method standard error from (mu, sigma2, tau2) observed information."""
    g = np.array([0.0, 1.0 / params.sigma2, -1.0 / params.tau2])
    cov_g = np.linalg.solve(np.asarray(observed_info, dtype=float), g)
    return float(np.sqrt(g @ cov_g))


def method_of_moments_start(a: RelationshipMatrix, y) -> AnimalParams:
    """Cheap interior starting point: mean plus a 2x2 trace-matching solve.

    Matches ``r'r`` and ``r'Ar`` of the centered responses to their expected
    values under the model; clamps both variances to at least
    ``1e-3 var(y)``, and falls back to an even split when the system is
    degenerate (as for A = I, where only the sum is identified).  This raw
    form keeps a fit's start, and so its Newton path, to the bit;
    :meth:`AnimalModel.starts` forms the start of a stack from ``Q'y``.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    if n != a.size:
        raise ValueError("response length does not match the pedigree")
    mu0 = float(y.mean())
    r = y - mu0
    r_a_r = float(r @ (a.a @ r))
    var_y = max(float(r @ r) / (n - 1), 1e-12)
    floor = 1e-3 * var_y
    design = _moment_design(a)
    rhs = np.array([r_a_r, float(r @ r)])
    if design is None:
        s2 = t2 = var_y / 2.0
    else:
        s2, t2 = np.linalg.solve(design, rhs)
    return AnimalParams(mu0, max(float(s2), floor), max(float(t2), floor))


def _moment_design(a: RelationshipMatrix) -> np.ndarray | None:
    """The method of moments' 2x2 system, None when it is degenerate."""
    design = np.array([[a.trace_sq, a.trace], [a.trace, float(a.size)]])
    det = design[0, 0] * design[1, 1] - design[0, 1] * design[1, 0]
    return None if det <= 1e-10 * max(design[0, 0] * design[1, 1], 1.0) else design


@dataclass(frozen=True, eq=False)
class RotatedResponse:
    """A trait vector in the eigenbasis of A, ``qty = Q'y``."""

    qty: np.ndarray


# the animal model's parameters (mu, log sigma2, log tau2): the bound on
# |phi| inside which it is evaluated (mu finite), which entries are log
# variances, and where the chain rule adds the gradient to the Hessian
_PHI_BOUND = np.array([np.finfo(float).max, 700.0, 700.0])
_LOG_VARIANCES = np.array([0.0, 1.0, 1.0])
_LOG_VARIANCE_DIAGONAL = np.diag(_LOG_VARIANCES)


class AnimalModel(LikModel):
    """Trait model fit over (mu, log sigma2, log tau2).

    The log-variance parameterization keeps Newton iterates interior and
    makes the parameter domain the whole space; reported results map back
    to natural variances.  The eigendecomposition of A is computed once per
    matrix (``RelationshipMatrix.kernel``) and shared read-only by every
    evaluation and simulation.  ``objective(y)`` rotates the response once,
    an O(N^2) product, and each evaluation then costs O(N); the data stack
    is the rotated responses ``Q'y``, and ``eval`` takes a raw response
    (rotated on every call) or a :class:`RotatedResponse`.
    """

    def __init__(self, a: RelationshipMatrix):
        self.relationship = a
        self._kernel = a.kernel
        self.dim_param = 3
        self.domain = OpenBox.unbounded(3)

    @property
    def eig_clamp(self) -> float:
        return self._kernel.eig_clamp

    @property
    def n_individuals(self) -> int:
        return self._kernel.n

    @staticmethod
    def params_to_phi(params: AnimalParams) -> np.ndarray:
        return np.array([params.mu, np.log(params.sigma2), np.log(params.tau2)])

    @staticmethod
    def phi_to_params(phi: np.ndarray) -> AnimalParams:
        return AnimalParams(float(phi[0]), float(np.exp(phi[1])), float(np.exp(phi[2])))

    def rotate(self, data) -> RotatedResponse:
        """``Q'y`` of a raw response; a RotatedResponse is returned as is."""
        if isinstance(data, RotatedResponse):
            return data
        return RotatedResponse(self._kernel.rotate(data))

    def objective(self, data) -> Objective:
        return super().objective(self.rotate(data))

    def stack_data(self, datas) -> np.ndarray:
        """``Q'y`` of responses (raw or rotated) as the rows of an ``(m, N)`` stack."""
        if isinstance(datas, np.ndarray):
            return datas
        return np.array([self.rotate(y).qty for y in datas]).reshape(len(datas), self.n_individuals)

    def stacked_objective(self, datas) -> StackedObjective:
        qty = self.stack_data(datas)
        # blocks of rows keep the kernel's (rows, 8, N) weights near 1 MB
        block = max(1, 2**14 // self.n_individuals)

        def kernel(rows, thetas):
            parts = [
                self._log_scale_eval(qty[rows[i : i + block]], thetas[i : i + block])
                for i in range(0, len(rows), block)
            ]
            return tuple(np.concatenate(column) for column in zip(*parts))

        return StackedObjective(self.domain, len(qty), kernel)

    def eval(self, data, theta: np.ndarray):
        value, grad, hess = self._log_scale_eval(self.rotate(data).qty, np.asarray(theta, dtype=float))
        # an overflowed Hessian (an overflowed gradient reaches its diagonal)
        # is NaO here, before ObjectiveEval's symmetry check warns on inf - inf
        if np.isnan(value) or not np.isfinite(hess).all():
            return NaO
        return ObjectiveEval(value, grad, hess)

    def _log_scale_eval(self, qty: np.ndarray, theta: np.ndarray):
        """(value, gradient, Hessian) over (mu, log sigma2, log tau2), over a
        trailing axis like ``natural_eval``; NaN where it cannot be evaluated."""
        outside = ~(np.abs(theta) <= _PHI_BOUND).all(axis=-1)
        if outside.any():
            theta = np.where(outside[..., None], 0.0, theta)
        # (1, sigma2, tau2): d(sigma2)/d(log sigma2) = sigma2, and likewise for tau2
        scale = np.exp(theta * _LOG_VARIANCES)
        value, g, h = self._kernel.natural_eval(qty, theta[..., 0], scale[..., 1], scale[..., 2])
        # past a log variance of about 355 these products overflow; the row is
        # then non-finite, which the objective turns into NaO without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            grad = g * scale
            hess = h * (scale[..., :, None] * scale[..., None, :])
            hess += _LOG_VARIANCE_DIAGONAL * grad[..., None, :]
        if outside.any():
            value = np.where(outside, np.nan, value)
            grad[outside] = np.nan
            hess[outside] = np.nan
        return value, grad, hess

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        params = self.phi_to_params(np.asarray(theta, dtype=float))
        return self._kernel.simulate(params.mu, params.sigma2, params.tau2, rng)

    def simulate_stack(self, theta: np.ndarray, rngs) -> np.ndarray:
        params = self.phi_to_params(np.asarray(theta, dtype=float))
        return self._kernel.simulate_rotated(params.mu, params.sigma2, params.tau2, rngs)

    def start(self, data) -> np.ndarray:
        return self.params_to_phi(method_of_moments_start(self.relationship, data))

    def starts(self, stack) -> np.ndarray:
        """:func:`method_of_moments_start` of each response of a stack, from ``Q'y``
        at O(N) a row: ``1'y = Q'1.Q'y``, ``r'r = |Q'r|^2``, ``r'Ar = sum lam (Q'r)^2``.
        Each sum is a row-wise dot product and the 2x2 systems one broadcast
        solve, so a row is the per-row formula's on ``Q'y``, to the bit."""
        qty = self.stack_data(stack)
        m, n = qty.shape
        if n < 3:
            return np.full((m, 3), np.nan)
        kernel = self._kernel

        def dots(x, v):  # ``x[j] @ v[j]`` a row, bit for bit (a matrix-vector product is not)
            return np.matmul(x[:, None, :], v[..., None])[:, 0, 0]

        mu0 = dots(qty, kernel.ones_t) / n
        r = qty - mu0[:, None] * kernel.ones_t
        r_r = dots(r, r)
        var_y = np.maximum(r_r / (n - 1), 1e-12)
        design = _moment_design(self.relationship)
        if design is None:
            s2 = t2 = var_y / 2.0
        else:
            rhs = np.stack([dots(r * r, kernel.lam), r_r], axis=1)
            s2, t2 = np.linalg.solve(np.broadcast_to(design, (m, 2, 2)), rhs[:, :, None])[:, :, 0].T
        floor = 1e-3 * var_y
        s2, t2 = np.maximum(s2, floor), np.maximum(t2, floor)
        phi = np.stack([mu0, np.log(s2), np.log(t2)], axis=1)
        phi[np.isnan(phi).any(axis=1)] = np.nan  # the variances are NaN: no start
        return phi

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        return _of_length(flat, self.n_individuals)


# ---------------------------------------------------------------------------
# iid helper models for sample-size ladder studies
# ---------------------------------------------------------------------------


class NormalLocationIid(LikModel):
    """n iid observations x_i ~ N(theta, I): the exactly-quadratic iid unit."""

    def __init__(self, p: int, n: int):
        self.p = int(p)
        self.n = int(n)
        self.dim_param = self.p
        self.domain = OpenBox.unbounded(self.p)

    def eval(self, data, theta: np.ndarray) -> ObjectiveEval:
        x = np.asarray(data, dtype=float).reshape(self.n, self.p)
        resid = x - theta
        value = -0.5 * float(np.sum(resid * resid))
        return ObjectiveEval(value, resid.sum(axis=0), -self.n * np.eye(self.p))

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return theta + rng.standard_normal((self.n, self.p))

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        return _of_length(flat, self.n * self.p).reshape(self.n, self.p)

    def unit_fisher(self, theta) -> np.ndarray:
        return np.eye(self.p)


class ExponentialRateIid(LikModel):
    """n iid exponential observations with rate theta: a curved iid unit."""

    def __init__(self, n: int):
        self.n = int(n)
        self.dim_param = 1
        self.domain = OpenBox(np.array([0.0]), np.array([np.inf]))

    def eval(self, data, theta: np.ndarray) -> ObjectiveEval:
        x = np.asarray(data, dtype=float)
        th = float(theta[0])
        total = float(x.sum())
        value = self.n * np.log(th) - th * total
        grad = np.array([self.n / th - total])
        hess = np.array([[-self.n / th**2]])
        return ObjectiveEval(value, grad, hess)

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(scale=1.0 / float(theta[0]), size=self.n)

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        return _of_length(flat, self.n)

    def start(self, data) -> np.ndarray:
        return np.array([1.0 / float(np.mean(data))])

    def unit_fisher(self, theta) -> np.ndarray:
        return np.array([[1.0 / float(theta[0]) ** 2]])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


class DataFormatError(ValueError):
    """A data file failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _of_length(flat: np.ndarray, expected: int, what: str = "values") -> np.ndarray:
    if flat.size != expected:
        raise DataFormatError(1, f"expected {expected} {what}, got {flat.size}")
    return flat


def load_vector_csv(path: str) -> np.ndarray:
    """One-column CSV of reals; a single non-numeric first line is a header."""
    values: list[float] = []
    with open(path, "r", encoding="utf8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1:
                    continue
                raise DataFormatError(lineno, f"expected a number, got {text!r}") from None
    if not values:
        raise DataFormatError(1, "no data rows")
    return np.asarray(values)


def save_vector_csv(path: str, values) -> None:
    with open(path, "w", encoding="utf8", newline="\n") as handle:
        for v in np.asarray(values, dtype=float).ravel():
            handle.write(f"{v:.17g}\n")


def save_matrix_csv(path: str, a) -> None:
    """Dense matrix as CSV, row-major."""
    mat = np.asarray(a, dtype=float)
    with open(path, "w", encoding="utf8", newline="\n") as handle:
        for row in mat:
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_pedigree_csv(path: str) -> Pedigree:
    """Pedigree CSV: header ``id,sire,dam``, 1-based ids, blank = unknown."""

    def parse_id(text: str, lineno: int, what: str) -> int | None:
        text = text.strip()
        if not text:
            return None
        try:
            value = int(text)
        except ValueError:
            raise DataFormatError(lineno, f"{what} must be an integer, got {text!r}") from None
        if value < 1:
            raise DataFormatError(lineno, f"{what} must be a positive id, got {value}")
        return value

    records: list[PedigreeRecord] = []
    lines: list[int] = []
    with open(path, "r", encoding="utf8", newline="") as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if lineno == 1:
                if [cell.strip().lower() for cell in row] != ["id", "sire", "dam"]:
                    raise DataFormatError(1, "header must be exactly 'id,sire,dam'")
                continue
            if len(row) != 3:
                raise DataFormatError(lineno, f"expected 3 fields, got {len(row)}")
            rec_id = parse_id(row[0], lineno, "id")
            if rec_id is None:
                raise DataFormatError(lineno, "id may not be blank")
            sire = parse_id(row[1], lineno, "sire")
            dam = parse_id(row[2], lineno, "dam")
            records.append(PedigreeRecord(rec_id, sire, dam))
            lines.append(lineno)
    if not records:
        raise DataFormatError(1, "no pedigree records")
    try:
        return Pedigree(tuple(records))
    except PedigreeError as err:
        raise DataFormatError(lines[err.index], str(err)) from None


def save_pedigree_csv(path: str, ped: Pedigree) -> None:
    with open(path, "w", encoding="utf8", newline="\n") as handle:
        handle.write("id,sire,dam\n")
        for rec in ped.records:
            sire = "" if rec.sire is None else str(rec.sire)
            dam = "" if rec.dam is None else str(rec.dam)
            handle.write(f"{rec.id},{sire},{dam}\n")
