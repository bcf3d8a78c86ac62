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
import io
from dataclasses import dataclass

import numpy as np

from .core import LikModel, OpenBox, _centres, quadratic_stack, spd_matrix, symmetric_matrix
from .lamn import LamnSpec, sample_lamn_stack
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
        self.k, self._factor = spd_matrix(k, "curvature")
        self.dim_param = self.k.shape[0]
        self.domain = OpenBox.unbounded(self.dim_param)

    def loglik(self, stack: np.ndarray, thetas: np.ndarray):
        return quadratic_stack(0.0, stack, self.k, thetas)

    def simulate_stack(self, centers, streams) -> np.ndarray:
        """The z vectors of one draw per stream as the rows of an ``(m, p)`` stack."""
        xi = np.empty((len(streams), self.dim_param))
        for rng, row in zip(streams, xi):
            rng.standard_normal(out=row)
        # one matrix-vector product a row, as ``k @ theta`` for one row (einsum is not)
        mean = np.matmul(self.k, _centres(centers, len(xi), self.dim_param)[..., None])
        return (mean + np.matmul(self._factor, xi[..., None]))[..., 0]

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

    def loglik(self, stack: np.ndarray, thetas: np.ndarray):
        p = self.dim_param
        return quadratic_stack(0.0, stack[:, :p], stack[:, p:].reshape(len(stack), p, p), thetas)

    def simulate_stack(self, centers, streams) -> np.ndarray:
        """Draws as the rows of an ``(m, p + p*p)`` stack, z then k row-major."""
        return sample_lamn_stack(self.spec, centers, streams)

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        """The row ``z`` then ``k`` row-major, ``k`` tested and symmetrized by
        :func:`~quadlik.core.spd_matrix`; a DataFormatError where it is not
        symmetric or not positive definite."""
        p = self.dim_param
        _of_length(flat, p + p * p, "values (z then k row-major)")
        try:
            k, _ = spd_matrix(flat[p:].reshape(p, p), f"k (values {p + 1} to {p + p * p})")
        except ValueError as err:
            raise DataFormatError(1, str(err)) from None
        return np.concatenate([flat[:p], k.ravel()])


def wishart_lamn_model(spec: LamnSpec) -> WishartLamnModel:
    """Wrap a quadratic-likelihood sampler spec as a fittable model."""
    return WishartLamnModel(spec)


# ---------------------------------------------------------------------------
# AR(1): exactly quadratic, curvature law depends on the parameter
# ---------------------------------------------------------------------------


def ar1_simulate_paths(
    theta: float, n: int, x0: float, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized paths, shape (n_paths, n + 1), all starting at x0."""
    return _ar1_paths(theta, float(x0), rng.standard_normal((n_paths, n)))


def _ar1_paths(theta, x0, noise: np.ndarray) -> np.ndarray:
    """The AR(1) recursion, one path a row: row j has coefficient ``theta``
    and starts at ``x0`` (each a scalar or its row j) and takes its noise from
    ``noise[j]``; each row is computed exactly as it would be alone."""
    m, n = noise.shape
    x = np.empty((m, n + 1))
    x[:, 0] = x0
    with np.errstate(over="ignore", invalid="ignore"):  # an exploding path is inf or NaN
        for i in range(1, n + 1):
            x[:, i] = theta * x[:, i - 1] + noise[:, i - 1]
    return x


def _row_dots(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``x[j] @ v[j]`` for each row j, bit for bit (a matrix-vector product is not)."""
    return np.matmul(x[:, None, :], v[..., None])[:, 0, 0]


def _ar1_kernel(paths: np.ndarray, theta: np.ndarray):
    """(value, gradient, Hessian) of each path (row) of ``paths`` at ``theta[j]``."""
    lag = paths[:, :-1]
    resid = paths[:, 1:] - theta[:, None] * lag
    value = -0.5 * _row_dots(resid, resid)
    return value, _row_dots(lag, resid)[:, None], -_row_dots(lag, lag)[:, None, None]


def ar1_expected_info(theta: float, n: int, x0: float) -> float:
    """Expected observed information E(sum X_{i-1}^2 | X_0 = x0).

    Computed by the conditional second-moment recursion
    ``e_j = theta^2 e_{j-1} + 1`` with ``e_0 = x0^2``; valid for every real
    theta including |theta| >= 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x0 = float(x0)
    e = x0 * x0  # inf past about 1.3e154, where ``x0 ** 2`` raises
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

    def loglik(self, stack: np.ndarray, thetas: np.ndarray):
        return _ar1_kernel(stack, thetas[:, 0])

    def simulate_stack(self, centers, streams) -> np.ndarray:
        """One path per stream as the rows of an ``(m, n + 1)`` stack: each stream
        draws its start first (with ``random_x0``), then its noise, and all
        run through one recursion.  An exploding path is kept, inf or NaN, and
        its fit is NaO."""
        x0 = np.full(len(streams), self.x0)
        noise = np.empty((len(streams), self.n))
        for j, rng in enumerate(streams):
            if self.random_x0:
                x0[j] = rng.standard_normal()
            rng.standard_normal(out=noise[j])
        return _ar1_paths(_centres(centers, len(x0), 1)[:, 0], x0, noise)

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        return _of_length(flat, self.n + 1, "values for the AR(1) path")


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
        a = symmetric_matrix(self.a, "relationship matrix")
        if np.any(a < -1e-12) or np.any(a > 2.0 + 1e-12):
            raise ValueError("relationship entries must lie in [0, 2]")
        object.__setattr__(self, "a", a)

    @property
    def size(self) -> int:
        return self.a.shape[0]


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
    if n_generations >= 2 and n_per_generation < 2:
        raise ValueError("n_per_generation must be at least 2 when n_generations is 2 or more")
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
    """Map from the sums of :meth:`AnimalModel.natural_eval` to its outputs.

    With ``w = s2 lam + t2``, ``rt = Q'y - mu Q'1`` and ``o = Q'1``, it
    forms eight weight rows over the eigenvalues, 1/w, 1/w^2,
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


def logit_heritability(params: AnimalParams) -> float:
    """log sigma2 - log tau2, the unconstrained variance-ratio transform."""
    return float(np.log(params.sigma2) - np.log(params.tau2))


# the animal model's parameters (mu, log sigma2, log tau2): the bound on
# |phi| of its domain (mu finite), and which entries are log variances
_PHI_BOUND = np.array([np.finfo(float).max, 700.0, 700.0])
_LOG_VARIANCES = np.array([0.0, 1.0, 1.0])


class AnimalModel(LikModel):
    """Trait model fit over (mu, log sigma2, log tau2).

    The log-variance parameterization keeps Newton iterates interior, and
    reported results map back to natural variances.  The domain is the open
    box ``|phi| < (float max, 700, 700)``, past which the variances may
    overflow.  The model holds the eigendecomposition
    ``A = Q diag(lam) Q'``, one ``eigh`` when it is built, read-only after
    that.  A response enters the likelihood only through its rotation
    ``Q'y``, so a data set is ``Q'y``: :meth:`parse_data` rotates a raw
    response y once (:meth:`rotate`, one O(N^2) product), and
    :meth:`simulate_stack` draws ``Q'y`` without forming y.  :meth:`loglik`
    then costs O(N) a row: it takes ``Q'y`` rows and (mu, log sigma2, log
    tau2) rows, and gives NaN where V is numerically singular, and a
    non-finite row where the log-scale products overflow (a log variance
    past about 355); both are NaO.
    """

    def __init__(self, a: RelationshipMatrix):
        self.relationship = a
        self.n_individuals = n = a.size
        self.lam, self.q = lam, q = np.linalg.eigh(a.a)
        self.ones_t = q.T @ np.ones(n)
        # negative eigenvalues of A, rounding artifacts, are clamped to zero in the draws
        self.eig_clamp = float(max(0.0, -lam.min()))
        self._sqrt_lam = np.sqrt(np.clip(lam, 0.0, None))
        self._ones_t_sq = self.ones_t * self.ones_t
        self._rank_floor = n * np.finfo(float).eps
        # every sum over eigenvalues is a weight row times 1, lam or lam^2
        self._basis = np.stack([np.ones(n), lam, lam * lam], axis=1)
        # the method of moments' 2x2 system over tr(A^2) and tr(A), None when it is degenerate
        trace = float(np.trace(a.a))
        design = np.array([[float(np.sum(a.a * a.a)), trace], [trace, float(n)]])
        det = design[0, 0] * design[1, 1] - design[0, 1] * design[1, 0]
        self._design = None if det <= 1e-10 * max(design[0, 0] * design[1, 1], 1.0) else design
        self.dim_param = 3
        self.domain = OpenBox(-_PHI_BOUND, _PHI_BOUND)

    @staticmethod
    def params_to_phi(params: AnimalParams) -> np.ndarray:
        return np.array([params.mu, np.log(params.sigma2), np.log(params.tau2)])

    @staticmethod
    def phi_to_params(phi: np.ndarray) -> AnimalParams:
        return AnimalParams(float(phi[0]), float(np.exp(phi[1])), float(np.exp(phi[2])))

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
        weights = np.empty(w.shape[:-1] + (8, self.n_individuals))
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

    def loglik(self, qty: np.ndarray, theta: np.ndarray):
        """(value, gradient, Hessian) over (mu, log sigma2, log tau2) from ``Q'y``,
        over a trailing axis like :meth:`natural_eval`."""
        # (1, sigma2, tau2): d(sigma2)/d(log sigma2) = sigma2, and likewise for tau2
        scale = np.exp(theta * _LOG_VARIANCES)
        value, g, h = self.natural_eval(qty, theta[..., 0], scale[..., 1], scale[..., 2])
        # past a log variance of about 355 these products overflow: a non-finite row, so NaO
        grad = g * scale
        hess = h * (scale[..., :, None] * scale[..., None, :])
        # the chain rule adds the gradient to the diagonal alone: 0 * gradient added
        # off it could give a zero entry one sign above the diagonal, another below
        hess[..., 1, 1] += grad[..., 1]
        hess[..., 2, 2] += grad[..., 2]
        return value, grad, hess

    def simulate_response(self, mu: float, sigma2: float, tau2: float, rng: np.random.Generator) -> np.ndarray:
        """One raw response y at natural parameters, the draw that
        :meth:`simulate_rotated` rotates; a zero variance, the boundary, is
        allowed here.  The genetic factor is ``Q diag(sqrt(lam))``, with the
        negative eigenvalues clamped to zero (``eig_clamp``)."""
        n = self.n_individuals
        genetic = np.sqrt(sigma2) * ((self.q * self._sqrt_lam) @ rng.standard_normal(n))
        environment = np.sqrt(tau2) * rng.standard_normal(n)
        return mu + genetic + environment

    def simulate_rotated(self, mu: np.ndarray, sigma2: np.ndarray, tau2: np.ndarray, streams) -> np.ndarray:
        """``Q'y`` of one :meth:`simulate_response` draw per stream, shape
        (len(streams), N): ``mu``, ``sigma2`` and ``tau2`` hold c centres, and
        centre i draws the ``n = len(streams) / c`` rows from row ``i n`` on.

        Each stream draws the two normal vectors of ``simulate_response`` in
        its order; ``Q'y = mu Q'1 + sqrt(sigma2) sqrt(lam) z1 + sqrt(tau2)
        Q'z2`` is then formed without forming y, with one product a centre on
        its n rows.  A product's last bits depend on its row count (one row
        is a matrix-vector product), so a centre's rows do not depend on the
        other centres drawn with it.  Rows agree with
        ``rotate(simulate_response(...))`` up to rounding.
        """
        c, m, n = len(mu), len(streams), self.n_individuals
        z1, z2 = np.empty((2, m, n))
        for rng, genetic, environment in zip(streams, z1, z2):
            rng.standard_normal(out=genetic)
            rng.standard_normal(out=environment)
        z1, z2 = z1.reshape(c, m // c, n), z2.reshape(c, m // c, n)
        qty = np.matmul(z2, self.q)
        qty *= np.sqrt(tau2)[:, None, None]
        z1 *= np.sqrt(sigma2)[:, None, None] * self._sqrt_lam
        qty += z1
        qty += mu[:, None, None] * self.ones_t
        return qty.reshape(m, n)

    def simulate_stack(self, centers, streams) -> np.ndarray:
        """``Q'y`` of one draw per stream, the streams split evenly among the
        centres.  Outside the domain the variances may overflow, and there is
        no draw: such a centre's rows are NaN, so NaO.  So is a row that
        overflows, as ``mu Q'1`` does for a mean near the float maximum,
        without a warning."""
        phi = _centres(centers, len(centers), 3)
        outside = ~self.domain.contains_rows(phi)
        # an outside centre draws at phi = 0, and its rows are then set to NaN
        phi = np.where(outside[:, None], 0.0, phi)
        with np.errstate(over="ignore", invalid="ignore"):
            qty = self.simulate_rotated(phi[:, 0], np.exp(phi[:, 1]), np.exp(phi[:, 2]), streams)
        qty[np.repeat(outside, len(streams) // len(phi)) | ~np.isfinite(qty).all(axis=1)] = np.nan
        return qty

    def starts(self, stack) -> np.ndarray:
        """A cheap interior start for each response: the mean, plus variances
        that match ``r'r`` and ``r'Ar`` of the centered response ``r`` to their
        expected values under the model (one 2x2 solve).

        Both variances are clamped to at least ``1e-3 var(y)``, and split
        evenly when the system is degenerate (as for A = I, where only their
        sum is identified).  Every sum comes from ``Q'y`` at O(N) a row:
        ``1'y = Q'1.Q'y``, ``r'r = |Q'r|^2``, ``r'Ar = sum lam (Q'r)^2``, each a
        row-wise dot product, and the 2x2 systems are one broadcast solve.
        A row is NaN where there is no start: fewer than 3 individuals, or
        a response that is not finite.
        """
        qty = np.asarray(stack, dtype=float)
        m, n = qty.shape
        if n < 3:
            return np.full((m, 3), np.nan)
        with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows has no start
            mu0 = _row_dots(qty, self.ones_t) / n
            r = qty - mu0[:, None] * self.ones_t
            r_r = _row_dots(r, r)
            var_y = np.maximum(r_r / (n - 1), 1e-12)
            if self._design is None:
                s2 = t2 = var_y / 2.0
            else:
                rhs = np.stack([_row_dots(r * r, self.lam), r_r], axis=1)
                s2, t2 = np.linalg.solve(np.broadcast_to(self._design, (m, 2, 2)), rhs[:, :, None])[:, :, 0].T
            floor = 1e-3 * var_y
            s2, t2 = np.maximum(s2, floor), np.maximum(t2, floor)
            phi = np.stack([mu0, np.log(s2), np.log(t2)], axis=1)
        phi[np.isnan(phi).any(axis=1)] = np.nan  # the variances are NaN: no start
        return phi

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        """The response ``y`` rotated to ``Q'y``, once."""
        return self.rotate(_of_length(flat, self.n_individuals))


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

    def loglik(self, stack: np.ndarray, thetas: np.ndarray):
        resid = stack - thetas[:, None, :]
        value = -0.5 * (resid * resid).sum(axis=(1, 2))
        return value, resid.sum(axis=1), np.broadcast_to(-self.n * np.eye(self.p), (len(stack), self.p, self.p))

    def simulate_stack(self, centers, streams) -> np.ndarray:
        """The samples of one draw per stream as the ``(n, p)`` rows of an ``(m, n, p)`` stack."""
        noise = np.empty((len(streams), self.n, self.p))
        for rng, row in zip(streams, noise):
            rng.standard_normal(out=row)
        return _centres(centers, len(noise), self.p)[:, None, :] + noise

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

    def loglik(self, stack: np.ndarray, thetas: np.ndarray):
        th = thetas[:, 0]
        total = stack.sum(axis=1)
        # a rate past 1e154 squares to inf, and its Hessian is then -0; one
        # below 1e-154 squares to 0, and its Hessian is -inf: non-finite rows are NaO
        value = self.n * np.log(th) - th * total
        hessian = -self.n / th**2
        return value, (self.n / th - total)[:, None], hessian[:, None, None]

    def simulate_stack(self, centers, streams) -> np.ndarray:
        """The samples of one draw per stream as the rows of an ``(m, n)`` stack.
        Where the scale 1/theta is not a positive finite real there is no
        draw: such a centre's rows are drawn at scale 1 and then set to NaN,
        so NaO."""
        with np.errstate(divide="ignore", over="ignore"):
            scales = 1.0 / _centres(centers, len(streams), 1)[:, 0]
        none = ~((scales > 0) & (scales < np.inf))
        draws = [rng.exponential(scale=scale, size=self.n) for rng, scale in zip(streams, np.where(none, 1.0, scales).tolist())]
        stack = np.array(draws).reshape(len(streams), self.n)
        stack[none] = np.nan
        return stack

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        """The sample; a DataFormatError naming its first negative value."""
        negative = np.flatnonzero(_of_length(flat, self.n) < 0)
        if negative.size:
            i = negative[0]
            raise DataFormatError(1, f"value {i + 1} is {float(flat[i])!r}, but an exponential observation is at least 0")
        return flat

    def starts(self, stack: np.ndarray) -> np.ndarray:
        """The rate MLE ``1 / mean`` of each sample; outside the domain (NaO)
        where that mean is not positive."""
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / stack.mean(axis=1, keepdims=True)

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


def _read_text(path: str, newline: str | None = None) -> io.StringIO:
    """A text file's lines, read as UTF-8 with ``open``'s ``newline`` rule; a
    DataFormatError naming the line where it is not UTF-8."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return io.StringIO(raw.decode("utf8"), newline=newline)
    except UnicodeDecodeError as err:
        raise DataFormatError(raw.count(b"\n", 0, err.start) + 1, f"not UTF-8 text ({err.reason})") from None


def load_vector_csv(path: str) -> np.ndarray:
    """One-column CSV of finite reals; a single non-numeric first line is a header.

    A value that parses but is not finite (``nan``, ``inf``, ``1e400``) is a
    DataFormatError that names its line.
    """
    values: list[float] = []
    with _read_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if lineno == 1:
                    continue
                raise DataFormatError(lineno, f"expected a number, got {text!r}") from None
            if not np.isfinite(value):
                raise DataFormatError(lineno, f"expected a finite number, got {text!r}")
            values.append(value)
    if not values:
        raise DataFormatError(1, "no data rows")
    return np.asarray(values)


def save_vector_csv(path: str, values) -> None:
    with open(path, "w", encoding="utf8", newline="\n") as handle:
        for v in np.asarray(values, dtype=float).ravel():
            handle.write(f"{v:.17g}\n")


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
    with _read_text(path, newline="") as handle:
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
