"""Core likelihood types: quadratic objectives, NaO semantics, local shifts.

Conventions used throughout the package:

* log likelihoods are maximized, never minimized;
* an "objective" is a callable mapping a parameter vector to an
  :class:`ObjectiveEval` (value, gradient, Hessian) or to :data:`NaO`;
* :data:`NaO` is the failure value, and it propagates: every operation
  that receives NaO returns NaO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# Reductions over a short last axis
# ---------------------------------------------------------------------------


# stacks of fewer rows than this are reduced by numpy itself, which is faster there
_FOLD_ROWS = 128
# the ufuncs reduce_rows folds, each with the test of the results whose bits its
# fold and numpy's reduce agree on; elsewhere they may pick a NaN's sign
# differently, and for a maximum also which of two equal zeros is kept
_FOLDS = {np.add: lambda out: out == out, np.maximum: lambda out: np.abs(out) > 0, np.logical_and: None}


def reduce_rows(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)``, bit for bit, for ``np.add``,
    ``np.maximum`` and ``np.logical_and``.

    numpy reduces each row in a call of its own inner loop, which costs tens
    of ns a row when the axis is short.  A stack of ``_FOLD_ROWS`` rows or
    more (along its first axis) has its last axis moved first in a
    contiguous copy, reduced over axis 0: a fold over the columns.  A
    maximum or an ``and`` is exact in any order.  numpy's add-reduce over at
    most 7 entries is a left fold from 0.0, as this one is; a longer sum is
    numpy's own (pairwise).  Where a result is NaN, or a zero maximum, the
    two may keep different bits, so those rows are reduced again by numpy.
    """
    if x.ndim < 2 or len(x) < _FOLD_ROWS or ufunc not in _FOLDS or (ufunc is np.add and x.shape[-1] > 7):
        return ufunc.reduce(x, -1)
    out = ufunc.reduce(np.ascontiguousarray(x.transpose(x.ndim - 1, *range(x.ndim - 1))), axis=0)
    settled = _FOLDS[ufunc]
    if settled is not None:
        kept = settled(out)
        if not kept.all():
            out[~kept] = ufunc.reduce(x[~kept], -1)
    return out


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
    (and hence every NaO) in the package, quietly: a matrix whose products
    overflow fails it without a warning.
    """
    a = np.asarray(m, dtype=float)
    p = a.shape[-1]
    stack = a.reshape(-1, p, p)
    floor = p * _EPS * reduce_rows(np.maximum, np.abs(stack).reshape(len(stack), p * p))
    live = floor == floor  # a NaN entry makes the floor NaN
    min_pivot = np.where(live, np.inf, -np.inf)
    lower = np.zeros_like(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(p):
            s = stack[:, j, j]
            if j:
                row = lower[:, j, :j]
                s = s - reduce_rows(np.add, row * row)
            # a NaN pivot makes min_pivot NaN, which is reported as -inf
            min_pivot = np.where(live, np.minimum(min_pivot, s), min_pivot)
            live &= s > floor
            diag = np.sqrt(np.where(live, s, 1.0))
            lower[:, j, j] = diag
            if j + 1 < p:
                col = stack[:, j + 1 :, j]
                if j:
                    col = col - reduce_rows(np.add, lower[:, j + 1 :, :j] * lower[:, None, j, :j])
                lower[:, j + 1 :, j] = col / diag[:, None]
    min_pivot[np.isnan(min_pivot)] = -np.inf
    if a.ndim == 2:
        return (lower[0] if live[0] else None), float(min_pivot[0])
    lower[~live] = np.nan
    return lower.reshape(a.shape), min_pivot.reshape(a.shape[:-2])


def spd_factor(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or None when not positive definite."""
    return cholesky_pivots(m)[0]


def symmetric_matrix(m, what: str) -> np.ndarray:
    """``(m + m')/2`` for a square ``m`` whose asymmetry ``|m[i, j] - m[j, i]|``
    is at most 1e-12 of its largest entry, else a ValueError naming ``what``.

    This one rule decides every matrix given from outside.  It compares the
    halves of ``m``, so entries near the float maximum do not overflow.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    half = 0.5 * a
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and a NaN entry passes on to the pivot test
        gap = half - half.T
        asym, big = float(np.abs(gap, out=gap).max()), max(float(half.max()), -float(half.min()))
        del gap  # freed before the sum: summing into it left 8 MB more resident over repeated N = 1000 builds
        if asym > 1e-12 * max(big, np.finfo(float).tiny):
            raise ValueError(f"{what} is not symmetric (its largest asymmetry is {asym / big:.3g} times its largest entry)")
        half += half.T  # exact: numpy reads the overlapping transpose from a copy
        return half


def spd_matrix(m, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``(k, lower)``: ``k`` the :func:`symmetric_matrix` of ``m`` and ``lower``
    its :func:`cholesky_pivots` factor; a ValueError naming ``what`` where ``k``
    fails the pivot test."""
    k = symmetric_matrix(m, what)
    lower = cholesky_pivots(k)[0]
    if lower is None:
        raise ValueError(f"{what} must be positive definite")
    return k, lower


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

    ``k`` is stored exactly symmetric, by :func:`symmetric_matrix`.
    """

    u: float
    z: np.ndarray
    k: np.ndarray

    def __post_init__(self) -> None:
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        k = symmetric_matrix(self.k, "curvature matrix")
        if k.shape != (z.size, z.size):
            raise ValueError(f"curvature shape {k.shape} does not match coefficient length {z.size}")
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "k", k)

    @property
    def dim(self) -> int:
        return self.z.size

    def objective(self) -> RowObjective:
        """This form as an objective: value ``u + z.theta - theta'k theta / 2``,
        gradient ``z - k theta``, Hessian ``-k``, with the NaO rules of
        :class:`StackedObjective`."""

        def kernel(rows, thetas):
            return quadratic_stack(self.u, self.z, self.k, thetas)

        return RowObjective(StackedObjective(OpenBox.unbounded(self.dim), 1, kernel))


def _centres(centers, m: int, p: int) -> np.ndarray:
    """The centre of each row of an m-row draw, shape ``(m, p)``: ``centers``
    holds c centres of length p, and each has ``m / c`` consecutive rows."""
    ths = np.asarray(centers, dtype=float)
    c = len(ths) if ths.ndim else 0
    if not c or ths.size != c * p or m % c:
        raise ValueError(f"expected centres of length {p}, as many as divide {m} rows, got shape {ths.shape}")
    return np.repeat(ths.reshape(c, p), m // c, axis=0)


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

    def contains(self, theta) -> bool:
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return th.shape == self.lower.shape and bool(self.contains_rows(th[None])[0])

    def contains_rows(self, thetas: np.ndarray) -> np.ndarray:
        """:meth:`contains` for each row of an ``(m, k)`` stack: all False
        unless ``k == dim``.

        The strict comparisons reject NaN and infinite entries, also on
        unbounded axes.
        """
        th = np.asarray(thetas, dtype=float)
        if th.shape[-1:] != self.lower.shape:
            return np.zeros(th.shape[:-1], dtype=bool)
        return reduce_rows(np.logical_and, (self.lower < th) & (th < self.upper))

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

    def first(self, p: int):
        """Row 0 as an :class:`ObjectiveEval`, or NaO where it is NaO."""
        if not self.ok[0]:
            return NaO
        value, gradient, hessian = self.split(self.packed[:1], p)
        return ObjectiveEval(value[0], gradient[0], hessian[0])


class StackedObjective:
    """An objective over a data stack, ``q(rows, thetas) -> StackedEval``.

    Data set ``rows[j]`` of the stack is evaluated at ``thetas[j]``;
    ``n_rows`` is the stack's number of data sets.  ``kernel(rows, thetas)``
    returns (value, gradient, Hessian) arrays, each Hessian exactly
    symmetric and read as returned, NaN where the likelihood cannot be
    evaluated; it is plain arithmetic and only sees rows inside the domain.
    Rows of the wrong width, out of the domain or with a non-finite
    evaluation come back NaO, without a warning: these are the only NaO
    rules of an objective, which :class:`RowObjective` reads at one data set.
    """

    def __init__(self, domain: OpenBox, n_rows: int, kernel):
        self.domain = domain
        self.n_rows = n_rows
        self._kernel = kernel

    def __call__(self, rows: np.ndarray, thetas: np.ndarray) -> StackedEval:
        thetas = np.asarray(thetas, dtype=float)
        m, p = thetas.shape
        inside = self.domain.contains_rows(thetas)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if m and inside.all():
                packed = _pack(*self._kernel(rows, thetas))
            else:
                packed = np.full((m, 1 + p + p * p), np.nan)
                if inside.any():
                    packed[inside] = _pack(*self._kernel(rows[inside], thetas[inside]))
        return StackedEval(packed, reduce_rows(np.logical_and, np.isfinite(packed)))


def _pack(value, gradient, hessian) -> np.ndarray:
    m = len(value)
    return np.concatenate([value.reshape(m, 1), gradient, hessian.reshape(m, -1)], axis=1)


class RowObjective:
    """The objective of one data set, row 0 of a :class:`StackedObjective`.

    ``q(theta)`` is an :class:`ObjectiveEval` or NaO (for NaO, or a
    parameter that is not one vector); :meth:`stack` evaluates an ``(m, k)``
    stack of points in one call.  A model's objective, a local shift and a
    quadratic form's objective are all of this class.
    """

    def __init__(self, stacked: StackedObjective):
        self.stacked = stacked

    def __call__(self, theta):
        if is_nao(theta):
            return NaO
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return self.stack(th[None]).first(th.size) if th.ndim == 1 else NaO

    def stack(self, thetas) -> StackedEval:
        """Row j holds, packed, what ``self(thetas[j])`` gives; ``ok`` is False
        where that is NaO, as every row is when ``k`` is not the dimension."""
        th = np.asarray(thetas, dtype=float)
        return self.stacked(np.zeros(len(th), dtype=int), th)


class LikModel:
    """Evaluation contract for a statistical model.

    A *data stack* is one array whose rows are data sets, and a data set is
    exactly one row of its model's stack: a Monte Carlo level is drawn,
    started and refit in that form, and a single data set is a stack of one.
    Subclasses set ``dim_param`` and ``domain`` and provide:

    * ``loglik(stack, thetas)``, the log likelihood as one vectorized kernel;
    * ``simulate_stack(centers, streams)``, the data stack of one draw per
      stream, the streams split evenly among the centres, the model's one
      draw method (:meth:`simulate` is its row 0);
    * ``starts(stack)``, the start of Newton's method for each row of a stack;
    * ``parse_data(flat)``, the one reader of outside data: it checks a data
      file's values and returns them as a row of the stack.
    """

    dim_param: int
    domain: OpenBox

    def loglik(self, stack: np.ndarray, thetas: np.ndarray):
        """The log likelihood of data set ``stack[j]`` at ``thetas[j]``, for every
        row j at once: value ``(m,)``, gradient ``(m, p)`` and Hessian ``(m,
        p, p)``, NaN where the likelihood cannot be evaluated.  Each Hessian
        equals its transpose bit for bit, NaN entries included: every
        consumer reads it as returned.

        It sees only parameters inside the domain, and computes each row
        exactly as it would a stack of that row alone.  It is the model's only
        likelihood formula, plain arithmetic: :meth:`objective` and
        :meth:`stacked_objective` add the NaO rules, quietly.
        """
        raise NotImplementedError

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One data set: row 0 of :meth:`simulate_stack` on the one stream ``rng``."""
        return self.simulate_stack([theta], [rng])[0]

    def simulate_stack(self, centers, streams) -> np.ndarray:
        """The data stack of one draw per stream: with c ``centers`` and
        ``n = len(streams) / c``, data set ``i`` is drawn at ``centers[i // n]``
        from the i-th stream alone, exactly as in a draw of its centre's n
        data sets alone, whatever other centres share the call.

        ``streams`` is an iterable of generators with a length, such as a
        list or :class:`~quadlik.rng.KeyedStreams`; a draw makes one pass
        over it, finishing each stream before it asks for the next, and
        never indexes it.
        """
        raise NotImplementedError

    def starts(self, stack: np.ndarray) -> np.ndarray:
        """Newton's start for each data set (row) of a data stack, ``(m,
        dim_param)``, NaN or outside the domain where there is none (by
        default the origin)."""
        return np.zeros((len(stack), self.dim_param))

    def parse_data(self, flat: np.ndarray) -> np.ndarray:
        """The data set a data file's values hold, as a row of the stack;
        DataFormatError if their number is wrong."""
        raise NotImplementedError

    def objective(self, data) -> RowObjective:
        """Objective ``theta -> ObjectiveEval`` for fixed data: row 0 of
        :meth:`stacked_objective` on the stack of this one data set.

        NaO in gives NaO out, and so does a parameter of the wrong length,
        outside the domain, or with a non-finite evaluation.
        """
        return RowObjective(self.stacked_objective([data]))

    def stacked_objective(self, datas) -> StackedObjective:
        """:meth:`loglik` over a data stack (or a list of its rows), with the NaO
        rules of :class:`StackedObjective`."""
        stack = np.asarray(datas, dtype=float)
        # blocks of rows keep a kernel's temporaries near 1 MB (the animal
        # model's weights are eight times its rows)
        block = max(1, 2**14 // max(1, math.prod(stack.shape[1:])))

        def kernel(rows, thetas):
            if len(rows) <= block:
                return self.loglik(stack[rows], thetas)
            parts = [
                self.loglik(stack[rows[i : i + block]], thetas[i : i + block]) for i in range(0, len(rows), block)
            ]
            return tuple(np.concatenate(column) for column in zip(*parts))

        return StackedObjective(self.domain, len(stack), kernel)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def quadratic_stack(u, z: np.ndarray, k: np.ndarray, theta: np.ndarray):
    """The quadratic kernel shared by every exactly quadratic log likelihood.

    value ``u + z.theta - theta'k theta / 2``, gradient ``z - k theta``,
    Hessian ``-k``, as arrays over a trailing axis: ``z`` and ``theta`` are
    ``(..., p)`` and ``k`` is ``(..., p, p)`` (symmetric), broadcast against
    each other; each row is computed exactly as it would be alone.  No NaO
    or shape checks: a row that overflows is inf or NaN, NaO in the objective.
    """
    kth = reduce_rows(np.add, k * theta[..., None, :])
    value = u + reduce_rows(np.add, z * theta) - 0.5 * reduce_rows(np.add, theta * kth)
    hessian = -k if k.ndim > theta.ndim else np.broadcast_to(-k, kth.shape + kth.shape[-1:])
    return value, z - kth, hessian


def quadratic_mle(q: QuadraticForm) -> MaybeParam:
    """Maximizer ``k^{-1} z`` when ``k`` is positive definite, else NaO."""
    lower = spd_factor(q.k)
    if lower is None:
        return NaO
    return spd_solve(lower, q.z)


def shifted_stack(model: LikModel, datas, psi, tau: float = 1.0, tau_sq: float | None = None):
    """Log-likelihood ratios over a data stack: row j at ``delta`` is
    ``l_j(psi + delta/tau) - l_j(psi)``, NaO at every delta where ``l_j(psi)`` is.

    The ``l_j(psi)`` are evaluated once, in one call, so each row is exactly
    0.0 at delta = 0.  Gradients and Hessians carry the ``1/tau`` and
    ``1/tau**2`` chain-rule factors; tau = sqrt(n) with ``tau_sq = n`` keeps
    the Hessian free of sqrt-then-square rounding.  Returns the
    :class:`StackedObjective` and whether each ``l_j(psi)`` is finite.
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    tau_sq = tau * tau if tau_sq is None else tau_sq
    stacked = model.stacked_objective(datas)
    base = stacked(np.arange(stacked.n_rows), np.tile(psi, (stacked.n_rows, 1)))
    base_value = np.where(base.ok, base.packed[:, 0], np.nan)

    def kernel(rows, deltas):
        value, gradient, hessian = StackedEval.split(stacked(rows, psi + deltas / tau).packed, psi.size)
        return value - base_value[rows], gradient / tau, hessian / tau_sq

    return StackedObjective(OpenBox.unbounded(psi.size), stacked.n_rows, kernel), base.ok


def local_shift(model: LikModel, data, psi, tau: float = 1.0, tau_sq: float | None = None) -> RowObjective:
    """The recentered log-likelihood ratio ``q(delta) = l(psi + delta/tau) -
    l(psi)`` of one data set: row 0 of :func:`shifted_stack`.  ValueError
    when psi lies outside the model domain, tau is not positive, or the
    objective is not finite at psi.
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    if not model.domain.contains(psi):
        raise ValueError("shift center psi lies outside the model domain")
    if not tau > 0:
        raise ValueError("tau must be positive")
    shifted, base_ok = shifted_stack(model, [data], psi, tau, tau_sq)
    if not base_ok[0]:
        raise ValueError("objective is not finite at psi")
    return RowObjective(shifted)
