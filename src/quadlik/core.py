"""Core likelihood types: quadratic objectives, NaO semantics, local shifts.

Conventions used throughout the package:

* log likelihoods are maximized, never minimized;
* an "objective" is a callable mapping a parameter vector to an
  :class:`ObjectiveEval` (value, gradient, Hessian) or to :data:`NaO`;
* :data:`NaO` is the failure value, and it propagates: every operation
  that receives NaO returns NaO.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np


class NaOType:
    """The distinguished "not an object" value.

    A single falsy sentinel (like ``None``), not a vector of NaNs, so
    identity and equality are exact.  Returned whenever Newton's method or a
    downstream operation is undefined: non-positive-definite curvature,
    evaluation outside the domain, failed fits.
    """

    _instance: "NaOType | None" = None

    def __new__(cls) -> "NaOType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NaO"

    def __bool__(self) -> bool:
        return False


NaO = NaOType()

MaybeParam = Union[np.ndarray, NaOType]
Objective = Callable[[MaybeParam], object]


def is_nao(x) -> bool:
    """True when ``x`` is the NaO sentinel."""
    return isinstance(x, NaOType)


# ---------------------------------------------------------------------------
# Positive definiteness: the single NaO decision procedure
# ---------------------------------------------------------------------------


_EPS = np.finfo(float).eps


def cholesky_pivots(m: np.ndarray):
    """Cholesky factorization tracking the smallest pivot encountered.

    For one matrix returns ``(lower, min_pivot)`` where ``lower`` is the
    lower-triangular factor, or ``None`` when some pivot fails the floor
    ``p * eps * max|m|``; a matrix with a NaN entry fails with pivot -inf.
    A stack ``(..., p, p)`` is decided matrix by matrix, exactly as each
    would be alone: ``lower`` is ``(..., p, p)``, all NaN for every matrix
    that fails (a factor that passes is finite), and ``min_pivot`` is
    ``(...)``.  This one test backs every positive-definiteness decision
    (and hence every NaO) in the package.
    """
    a = np.asarray(m, dtype=float)
    p = a.shape[-1]
    stack = a.reshape(-1, p, p)
    floor = p * _EPS * np.abs(stack).reshape(len(stack), p * p).max(axis=1)
    live = floor == floor  # a NaN entry makes the floor NaN
    min_pivot = np.where(live, np.inf, -np.inf)
    lower = np.zeros_like(stack)
    for j in range(p):
        s = stack[:, j, j]
        if j:
            row = lower[:, j, :j]
            s = s - (row * row).sum(axis=1)
        # a NaN pivot makes min_pivot NaN, which is reported as -inf
        min_pivot = np.where(live, np.minimum(min_pivot, s), min_pivot)
        live &= s > floor
        diag = np.sqrt(np.where(live, s, 1.0))
        lower[:, j, j] = diag
        if j + 1 < p:
            col = stack[:, j + 1 :, j]
            if j:
                col = col - (lower[:, j + 1 :, :j] * lower[:, None, j, :j]).sum(axis=2)
            lower[:, j + 1 :, j] = col / diag[:, None]
    min_pivot[np.isnan(min_pivot)] = -np.inf
    if a.ndim == 2:
        return (lower[0] if live[0] else None), float(min_pivot[0])
    lower[~live] = np.nan
    return lower.reshape(a.shape), min_pivot.reshape(a.shape[:-2])


def spd_factor(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or None when not positive definite."""
    return cholesky_pivots(m)[0]


def spd_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L') x = b`` given the lower factor ``L``.

    ``lower`` may be a stack ``(..., p, p)`` with ``b`` of shape ``(..., p)``;
    forward then back substitution over the stack at once.
    """
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(b, dtype=float)
    p = b.shape[-1]
    x = np.array(np.broadcast_to(b, np.broadcast_shapes(lower.shape[:-1], b.shape)))
    for i in range(p):
        for k in range(i):
            x[..., i] -= lower[..., i, k] * x[..., k]
        x[..., i] /= lower[..., i, i]
    for i in range(p - 1, -1, -1):
        for k in range(i + 1, p):
            x[..., i] -= lower[..., k, i] * x[..., k]
        x[..., i] /= lower[..., i, i]
    return x


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Data of a quadratic objective ``theta -> u + z.theta - theta'k theta / 2``.

    ``k`` is stored exactly symmetric; construction rejects asymmetry beyond
    1e-12 relative and symmetrizes anything smaller.
    """

    u: float
    z: np.ndarray
    k: np.ndarray

    def __post_init__(self) -> None:
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        k = np.asarray(self.k, dtype=float)
        if k.shape != (z.size, z.size):
            raise ValueError(f"curvature shape {k.shape} does not match coefficient length {z.size}")
        asym = float(np.max(np.abs(k - k.T)))
        if asym > 1e-12 * max(float(np.max(np.abs(k))), np.finfo(float).tiny):
            raise ValueError(f"curvature matrix is not symmetric (max asymmetry {asym:g})")
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "k", _symmetrized(k))

    @property
    def dim(self) -> int:
        return self.z.size

    def objective(self) -> Objective:
        """This form as an objective callable (NaO-propagating), with a stacked evaluation."""
        return _QuadraticObjective(self)


def _symmetrized(h: np.ndarray) -> np.ndarray:
    """``(h + h')/2`` over the last two axes, halves first so entries near the
    float maximum do not overflow."""
    return 0.5 * h + 0.5 * h.swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class ObjectiveEval:
    """Value, gradient, and Hessian of an objective at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self) -> None:
        g = np.atleast_1d(np.asarray(self.gradient, dtype=float))
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (g.size, g.size):
            raise ValueError(f"hessian shape {h.shape} does not match gradient length {g.size}")
        asym = float(np.max(np.abs(h - h.T)))
        if asym > 1e-10 * max(float(np.max(np.abs(h))), np.finfo(float).tiny):
            raise ValueError(f"hessian is not symmetric (max asymmetry {asym:g})")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "hessian", _symmetrized(h))

    @property
    def dim(self) -> int:
        return self.gradient.size

    def all_finite(self) -> bool:
        return bool(
            np.isfinite(self.value)
            and np.all(np.isfinite(self.gradient))
            and np.all(np.isfinite(self.hessian))
        )


@dataclass(frozen=True, eq=False)
class OpenBox:
    """Axis-aligned open box, the parameter domain W (bounds may be infinite)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lower and upper bounds differ in length")
        if not np.all(lo < hi):
            raise ValueError("open box requires lower < upper on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, theta) -> bool:
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return th.shape == self.lower.shape and bool(self.contains_rows(th[None])[0])

    def contains_rows(self, thetas: np.ndarray) -> np.ndarray:
        """:meth:`contains` for each row of an ``(m, dim)`` stack.

        The strict comparisons reject NaN and infinite entries, also on
        unbounded axes.
        """
        th = np.asarray(thetas, dtype=float)
        return ((self.lower < th) & (th < self.upper)).all(axis=-1)

    @classmethod
    def unbounded(cls, dim: int) -> "OpenBox":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))


@dataclass(frozen=True, eq=False)
class StackedEval:
    """Evaluations of m rows, each packed as value, gradient, Hessian (row-major).

    ``packed`` is ``(m, 1 + p + p*p)``; rows where ``ok`` is False are NaO
    and their entries mean nothing.
    """

    packed: np.ndarray
    ok: np.ndarray

    @staticmethod
    def split(packed: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of packed rows as values ``(m,)``, gradients ``(m, p)``, Hessians ``(m, p, p)``."""
        return packed[:, 0], packed[:, 1 : p + 1], packed[:, p + 1 :].reshape(-1, p, p)

    def parts(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`split` with each Hessian symmetrized as :class:`ObjectiveEval` does."""
        value, gradient, hessian = self.split(self.packed, p)
        return value, gradient, _symmetrized(hessian)


class StackedObjective:
    """An objective over a data stack, ``q(rows, thetas) -> StackedEval``.

    Data set ``rows[j]`` of the stack is evaluated at ``thetas[j]``;
    ``n_rows`` is the stack's number of data sets.  ``kernel(rows, thetas)``
    returns (value, gradient, Hessian) arrays, with symmetric Hessians and
    NaN where the likelihood cannot be evaluated; it only sees rows inside
    the domain.  Out-of-domain, NaO and non-finite rows come back NaO, so
    each row is what :meth:`LikModel.objective` gives for its data set.
    """

    def __init__(self, domain: OpenBox, n_rows: int, kernel):
        self.domain = domain
        self.n_rows = n_rows
        self._kernel = kernel

    @classmethod
    def looped(cls, objectives: list, domain: OpenBox) -> "StackedObjective":
        """A stack of single-point objectives, evaluated one row at a time."""

        def kernel(rows, thetas):
            m, p = thetas.shape
            value, gradient, hessian = np.full(m, np.nan), np.full((m, p), np.nan), np.full((m, p, p), np.nan)
            for j, (r, th) in enumerate(zip(rows, thetas)):
                ev = objectives[r](th)
                if not is_nao(ev):
                    value[j], gradient[j], hessian[j] = ev.value, ev.gradient, ev.hessian
            return value, gradient, hessian

        return cls(domain, len(objectives), kernel)

    def __call__(self, rows: np.ndarray, thetas: np.ndarray) -> StackedEval:
        thetas = np.asarray(thetas, dtype=float)
        m, p = thetas.shape
        inside = self.domain.contains_rows(thetas)
        if m and inside.all():
            packed = _pack(*self._kernel(rows, thetas))
        else:
            packed = np.full((m, 1 + p + p * p), np.nan)
            if inside.any():
                packed[inside] = _pack(*self._kernel(rows[inside], thetas[inside]))
        return StackedEval(packed, np.isfinite(packed).all(axis=1))


def _pack(value, gradient, hessian) -> np.ndarray:
    m = len(value)
    return np.concatenate([value.reshape(m, 1), gradient, hessian.reshape(m, -1)], axis=1)


class LikModel:
    """Evaluation contract for a statistical model.

    Subclasses set ``dim_param`` and ``domain`` and provide a deterministic
    ``eval(data, theta) -> ObjectiveEval`` (or NaO where the likelihood
    cannot be evaluated), a ``simulate(theta, rng) -> data`` draw, a
    ``start(data)`` heuristic used to initialize Newton's method, and a
    ``parse_data(flat)`` reader for data files.  A Monte Carlo level is one
    *data stack*, drawn, started and refit in that form: an ``ndarray`` whose
    rows are data sets for a model with a vectorized likelihood (which
    overrides :meth:`stack_data` and :meth:`stacked_objective`), else a list.
    """

    dim_param: int
    domain: OpenBox

    def eval(self, data, theta: np.ndarray):
        raise NotImplementedError

    def simulate(self, theta: np.ndarray, rng: np.random.Generator):
        raise NotImplementedError

    def simulate_stack(self, theta: np.ndarray, rngs):
        """The data stack of one draw per stream: data set ``i`` uses ``rngs[i]``
        alone, exactly as ``simulate`` would."""
        return self.stack_data([self.simulate(theta, rng) for rng in rngs])

    def stack_data(self, datas):
        """The data stack of a list of data sets (by default the list itself); a
        data stack is returned unchanged."""
        return list(datas)

    def start(self, data) -> np.ndarray:
        """Newton's start for a data set."""
        return np.zeros(self.dim_param)

    def starts(self, stack) -> np.ndarray:
        """Newton's start for each data set (row) of a stack, ``(m, dim_param)``:
        a NaN row where :meth:`start` raises ValueError (LinAlgError is one) or
        gives NaO."""
        out = np.full((len(stack), self.dim_param), np.nan)
        for i, data in enumerate(stack):
            try:
                x0 = self.start(data)
            except ValueError:
                continue
            out[i] = np.nan if is_nao(x0) else x0
        return out

    def parse_data(self, flat: np.ndarray):
        """The data set a data file's values hold; DataFormatError if their number is wrong."""
        raise NotImplementedError

    def objective(self, data) -> Objective:
        """Objective ``theta -> ObjectiveEval`` for fixed data.

        Evaluations outside the domain, NaO-valued evaluations, and
        non-finite evaluations all come back as NaO.
        """

        def q(theta):
            if is_nao(theta):
                return NaO
            th = np.atleast_1d(np.asarray(theta, dtype=float))
            if not self.domain.contains(th):
                return NaO
            ev = self.eval(data, th)
            if is_nao(ev) or not ev.all_finite():
                return NaO
            return ev

        return q

    def stacked_objective(self, datas) -> StackedObjective:
        """Objective over a data stack or a list of data sets, with the rules of
        :meth:`objective`.

        The default evaluates ``objective(data)`` one row at a time.
        """
        return StackedObjective.looped([self.objective(d) for d in self.stack_data(datas)], self.domain)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def quadratic_loglik(q: QuadraticForm, theta: MaybeParam):
    """Evaluate a quadratic objective.

    value ``u + z.theta - theta'k theta / 2``, gradient ``z - k theta``,
    Hessian ``-k``.  NaO in, NaO out.
    """
    if is_nao(theta):
        return NaO
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != q.z.shape:
        raise ValueError(f"parameter length {th.size} does not match dimension {q.dim}")
    return quadratic_eval(q.u, q.z, q.k, th)


class _QuadraticObjective:
    """``QuadraticForm.objective()``: :func:`quadratic_loglik` at one point, or
    at each row of an ``(m, p)`` stack through :meth:`stack`."""

    def __init__(self, form: QuadraticForm):
        self.form = form

    def __call__(self, theta):
        return quadratic_loglik(self.form, theta)

    def stack(self, thetas) -> StackedEval:
        """Row j holds, packed, what ``self(thetas[j])`` gives."""
        th = np.asarray(thetas, dtype=float)
        if th.shape[1:] != self.form.z.shape:
            raise ValueError(f"parameter rows of shape {th.shape[1:]} do not match dimension {self.form.dim}")
        value, gradient, hessian = quadratic_stack(self.form.u, self.form.z, self.form.k, th)
        return StackedEval(_pack(value, gradient, _symmetrized(hessian)), np.ones(len(th), dtype=bool))


def quadratic_eval(u: float, z: np.ndarray, k: np.ndarray, theta: np.ndarray) -> ObjectiveEval:
    """The quadratic kernel shared by every exactly quadratic log likelihood.

    value ``u + z.theta - theta'k theta / 2``, gradient ``z - k theta``,
    Hessian ``-k``, for a float parameter vector of matching length and
    symmetric ``k``; no NaO or shape checks, so models can call it per eval.
    It is :func:`quadratic_stack` at one point.
    """
    return ObjectiveEval(*quadratic_stack(u, z, k, theta))


def quadratic_stack(u, z: np.ndarray, k: np.ndarray, theta: np.ndarray):
    """:func:`quadratic_eval` over a trailing axis, as (value, gradient, Hessian) arrays.

    ``z`` and ``theta`` are ``(..., p)`` and ``k`` is ``(..., p, p)``,
    broadcast against each other; each row is computed exactly as it
    would be alone.
    """
    kth = (k * theta[..., None, :]).sum(axis=-1)
    value = u + (z * theta).sum(axis=-1) - 0.5 * (theta * kth).sum(axis=-1)
    hessian = -k if k.ndim > theta.ndim else np.broadcast_to(-k, kth.shape + kth.shape[-1:])
    return value, z - kth, hessian


def quadratic_mle(q: QuadraticForm) -> MaybeParam:
    """Maximizer ``k^{-1} z`` when ``k`` is positive definite, else NaO."""
    lower = spd_factor(q.k)
    if lower is None:
        return NaO
    return spd_solve(lower, q.z)


class ShiftedObjective:
    """Recentered log-likelihood ratio ``delta -> l(psi + delta/tau) - l(psi)``.

    The value at 0 is exactly 0.0 because ``l(psi)`` is cached once and
    subtracted; gradients and Hessians carry the ``1/tau`` and ``1/tau**2``
    chain-rule factors.  Evaluations landing outside the model domain give
    NaO.  :meth:`stack` evaluates a stack of shifts in one call of the
    model's stacked objective.
    """

    def __init__(self, model: LikModel, data, psi, tau: float = 1.0, tau_sq: float | None = None):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        if not model.domain.contains(psi):
            raise ValueError("shift center psi lies outside the model domain")
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.model = model
        self.data = data
        self.psi = psi
        self.tau = float(tau)
        # callers with an exact squared rate (tau = sqrt(n)) can pass tau_sq = n
        # so the Hessian rescaling is free of the sqrt-then-square rounding
        self.tau_sq = float(tau_sq) if tau_sq is not None else self.tau * self.tau
        self._objective = model.objective(data)
        base = self._objective(psi)
        if is_nao(base):
            raise ValueError("objective is not finite at psi")
        self.base_value = base.value

    def __call__(self, delta):
        if is_nao(delta):
            return NaO
        d = np.atleast_1d(np.asarray(delta, dtype=float))
        ev = self._objective(self.psi + d / self.tau)
        if is_nao(ev):
            return NaO
        return ObjectiveEval(
            ev.value - self.base_value,
            ev.gradient / self.tau,
            ev.hessian / self.tau_sq,
        )

    @cached_property
    def _stacked(self) -> StackedObjective:
        return self.model.stacked_objective([self.data])

    def stack(self, deltas) -> StackedEval:
        """This objective at each row of an ``(m, p)`` stack of shifts.

        Row j holds, packed, what ``self(deltas[j])`` gives, with the
        Hessian symmetrized before and after rescaling as the two
        :class:`ObjectiveEval` constructions of that call do; ``ok`` is
        False where it gives NaO.
        """
        d = np.asarray(deltas, dtype=float)
        ev = self._stacked(np.zeros(len(d), dtype=int), self.psi + d / self.tau)
        value, gradient, hessian = ev.parts(self.psi.size)
        hessian = _symmetrized(hessian / self.tau_sq)
        return StackedEval(_pack(value - self.base_value, gradient / self.tau, hessian), ev.ok)


def local_shift(
    model: LikModel, data, psi, tau: float = 1.0, tau_sq: float | None = None
) -> ShiftedObjective:
    """Shifted objective ``q(delta) = l(psi + delta/tau) - l(psi)`` with q(0) = 0."""
    return ShiftedObjective(model, data, psi, tau, tau_sq)
