"""Distances between objectives over compact boxes.

Log likelihoods are compared as twice continuously differentiable functions:
sup norms of values, gradients, and Hessians over a gridded compact box, and
the classical metric for uniform convergence on an increasing sequence of
compacts.  Grid maxima are lower bounds to the true sups; reports carry the
grid resolution so users can refine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObjectiveEval, Objective, QuadraticForm, StackedEval, is_nao, reduce_rows

# Default grid resolution per axis, keyed by dimension.  Default grids are
# rejected above dimension 3.
DEFAULT_POINTS_PER_AXIS = {1: 33, 2: 33, 3: 9}


class NonFiniteEvaluationError(ValueError):
    """A function evaluated to NaO or a non-finite number on the grid."""

    def __init__(self, point: np.ndarray, message: str = "non-finite evaluation"):
        self.point = np.asarray(point, dtype=float)
        super().__init__(f"{message} at grid point {self.point.tolist()}")


@dataclass(frozen=True, eq=False)
class GridBox:
    """Axis-aligned compact box with a per-axis grid resolution.

    With two or more points per axis the grid includes both endpoints; a
    single point degenerates to the lower endpoint.
    """

    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        pts = np.atleast_1d(np.asarray(self.points_per_axis, dtype=int))
        if pts.size == 1 and lo.size > 1:
            pts = np.full(lo.size, int(pts[0]))
        if lo.shape != hi.shape or lo.shape != pts.shape:
            raise ValueError("lower, upper, points_per_axis differ in length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
            raise ValueError("box requires finite lower < upper on every axis")
        with np.errstate(over="ignore"):
            width = hi - lo
        if not np.all(np.isfinite(width)):
            raise ValueError("box width upper - lower overflows on some axis")
        if not np.all(pts >= 1):
            raise ValueError("points_per_axis must be >= 1")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "points_per_axis", pts)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def total_points(self) -> int:
        return math.prod(int(v) for v in self.points_per_axis)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(self.lower[i], self.upper[i], int(self.points_per_axis[i]))
            for i in range(self.dim)
        ]

    def points(self) -> np.ndarray:
        """All grid points, shape (total_points, dim), first axis slowest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def scaled_about_center(self, factor: float) -> "GridBox":
        center = (self.lower + self.upper) / 2.0
        half = (self.upper - self.lower) / 2.0
        return GridBox(center - factor * half, center + factor * half, self.points_per_axis)

    @classmethod
    def default(cls, lower, upper) -> "GridBox":
        dim = np.atleast_1d(np.asarray(lower, dtype=float)).size
        return cls(lower, upper, np.full(dim, default_points_per_axis(dim)))


def default_points_per_axis(dim: int) -> int:
    """Points an axis of the default grid of dimension ``dim``; a ValueError past dimension 3."""
    if dim not in DEFAULT_POINTS_PER_AXIS:
        raise ValueError(f"grid diagnostics support dimension <= 3, got {dim}")
    return DEFAULT_POINTS_PER_AXIS[dim]


@dataclass(frozen=True, eq=False)
class NestedBoxes:
    """Increasing sequence of compact boxes exhausting a region."""

    boxes: tuple[GridBox, ...]

    def __post_init__(self) -> None:
        boxes = tuple(self.boxes)
        if not boxes:
            raise ValueError("need at least one box")
        for a, b in zip(boxes, boxes[1:]):
            if not (np.all(a.lower >= b.lower) and np.all(a.upper <= b.upper)):
                raise ValueError("boxes must be increasing (each contained in the next)")
        object.__setattr__(self, "boxes", boxes)

    def __len__(self) -> int:
        return len(self.boxes)

    @classmethod
    def shrinking(cls, box: GridBox, n_boxes: int = 8) -> "NestedBoxes":
        """Scale ``box`` about its center by n/N for n = 1..N; the N-th box is ``box`` itself."""
        return cls(tuple(box.scaled_about_center(n / n_boxes) for n in range(1, n_boxes)) + (box,))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _on_points(f, points: np.ndarray) -> StackedEval:
    """``f`` at each row of ``points``.

    An objective with a stacked evaluation (``f.stack``, as every
    :class:`~quadlik.core.RowObjective` has: a model's objective, a local
    shift, a quadratic form's objective) is evaluated in one call; anything
    else is called point by point, which serves plain callables and is the
    reference for the stacked path.  Rows
    hold the packed value, gradient and Hessian of an objective, or the
    value of a scalar function; ``ok`` is False where ``f`` gave NaO.
    """
    stack = getattr(f, "stack", None)
    if stack is not None:
        return stack(points)
    results = [f(x) for x in points]
    ok = np.array([not is_nao(v) for v in results], dtype=bool)
    rows = [
        np.concatenate(([v.value], v.gradient, v.hessian.ravel())) if isinstance(v, ObjectiveEval) else [float(v)]
        for v, good in zip(results, ok)
        if good
    ]
    packed = np.full((len(results), len(rows[0]) if rows else 1), np.nan)
    packed[ok] = rows
    return StackedEval(packed, ok)


def _raise_at_first_failure(points: np.ndarray, evals, message: str | None = None) -> None:
    """NonFiniteEvaluationError at the first point, in grid order, where one of
    ``evals`` (checked in order) is NaO or not finite.

    Without ``message`` the error says which of the two it was.
    """
    bad = [~ev.ok | ~reduce_rows(np.logical_and, np.isfinite(ev.packed)) for ev in evals]
    hit = np.logical_or.reduce(bad)
    if not hit.any():
        return
    i = int(np.argmax(hit))
    if message is None:
        ev = next(ev for ev, b in zip(evals, bad) if b[i])
        message = "non-finite evaluation" if ev.ok[i] else "NaO evaluation"
    raise NonFiniteEvaluationError(points[i], message)


def sup_norm_on_box(f, g, box: GridBox) -> float:
    """Grid maximum of ``|f - g|`` over the box (a lower bound to the sup)."""
    points = box.points()
    ef, eg = _on_points(f, points), _on_points(g, points)
    # of an objective only the value is compared, so only it must be finite
    ef, eg = (StackedEval(ev.packed[:, :1], ev.ok) for ev in (ef, eg))
    _raise_at_first_failure(points, (ef, eg))
    return float(np.max(np.abs(ef.packed[:, 0] - eg.packed[:, 0])))


def rudin_tail_bound(nested: NestedBoxes) -> float:
    """Bound on the terms dropped by truncating the metric to N boxes."""
    return 2.0 ** -(len(nested) + 1)


def rudin_distance(f, g, nested: NestedBoxes) -> float:
    """Metric for uniform convergence on compacts, truncated to the given boxes.

    ``max_n 2^-n * d_n / (1 + d_n)`` with ``d_n`` the sup norm of f - g on
    the n-th box (n from 1).  Dropped tail terms are below
    :func:`rudin_tail_bound`.  Always at most 1/2.
    """
    best = 0.0
    for n, box in enumerate(nested.boxes, start=1):
        d = sup_norm_on_box(f, g, box)
        best = max(best, 2.0**-n * d / (1.0 + d))
    return best


def c2_distance(f: Objective, g: Objective, box: GridBox) -> tuple[float, float, float]:
    """Sup norms over the grid of value, gradient, and Hessian differences.

    Gradient and Hessian differences are measured entrywise (max-abs).
    """
    points = box.points()
    ef, eg = _on_points(f, points), _on_points(g, points)
    _raise_at_first_failure(points, (ef, eg), "NaO or non-finite evaluation")
    diff = np.abs(ef.packed - eg.packed)
    p = box.dim
    return float(np.max(diff[:, 0])), float(np.max(diff[:, 1 : p + 1])), float(np.max(diff[:, p + 1 :]))


def quadratic_fit_at(q: Objective, delta0) -> QuadraticForm:
    """Second-order Taylor quadratic of an objective anchored at ``delta0``.

    The returned form matches value, gradient, and Hessian of ``q`` at the
    anchor exactly.
    """
    d0 = np.atleast_1d(np.asarray(delta0, dtype=float))
    ev = q(d0)
    if is_nao(ev) or not ev.all_finite():
        raise NonFiniteEvaluationError(d0, "objective not finite at anchor")
    k = -ev.hessian
    z = ev.gradient + k @ d0
    u = ev.value - float(z @ d0) + 0.5 * float(d0 @ k @ d0)
    return QuadraticForm(u, z, k)


@dataclass(frozen=True, eq=False)
class QuadraticityReport:
    """How far an objective is from its own Taylor quadratic on a box."""

    d0: float
    d1: float
    d2: float
    rudin: float
    rudin_tail_bound: float
    anchor: np.ndarray
    box_lower: np.ndarray
    box_upper: np.ndarray
    points_per_axis: np.ndarray

    def to_record(self) -> dict:
        return {
            "quadraticity_d0": self.d0,
            "quadraticity_d1": self.d1,
            "quadraticity_d2": self.d2,
            "quadraticity_rudin": self.rudin,
            "quadraticity_rudin_tail_bound": self.rudin_tail_bound,
            "quadraticity_anchor": self.anchor.tolist(),
            "quadraticity_box_lower": self.box_lower.tolist(),
            "quadraticity_box_upper": self.box_upper.tolist(),
            "quadraticity_points_per_axis": [int(v) for v in self.points_per_axis],
        }


def quadraticity_report(q: Objective, delta0, box: GridBox) -> QuadraticityReport:
    """Distances from ``q`` to its Taylor quadratic at ``delta0`` over ``box``.

    Reports the three sup norms plus the compact-exhaustion metric on the
    default nested shrinking of the box (8 boxes).  The last of them is
    ``box``, whose sup norm of values is ``d0``: its grid is evaluated once.
    """
    anchor = np.atleast_1d(np.asarray(delta0, dtype=float))
    fit = quadratic_fit_at(q, anchor).objective()
    d0, d1, d2 = c2_distance(q, fit, box)
    nested = NestedBoxes.shrinking(box)
    inner = rudin_distance(q, fit, NestedBoxes(nested.boxes[:-1]))
    rud = max(inner, 2.0 ** -len(nested) * d0 / (1.0 + d0))
    return QuadraticityReport(
        d0=d0,
        d1=d1,
        d2=d2,
        rudin=rud,
        rudin_tail_bound=rudin_tail_bound(nested),
        anchor=anchor,
        box_lower=box.lower,
        box_upper=box.upper,
        points_per_axis=box.points_per_axis,
    )
