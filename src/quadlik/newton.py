"""One-step and iterated Newton maps with NaO semantics, plus a safeguard.

The plain Newton map is undefined whenever the negative Hessian is not
positive definite; in that case it returns NaO rather than raising, so the
frequency of failure is itself a measurable quantity downstream.  The
safeguarded variant shifts the Hessian and backtracks, guaranteeing monotone
ascent, and never returns NaO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MaybeParam, NaO, Objective, cholesky_pivots, is_nao, spd_solve

DEFAULT_MAX_STEPS = 100
ARMIJO_C = 1e-4
MIN_BACKTRACK = 2.0**-60


@dataclass(frozen=True, eq=False)
class NewtonTrace:
    """Iterate history of a Newton run.

    ``grad_norms`` is parallel to ``iterates`` (NaN where an iterate could
    not be evaluated).  ``steps`` counts attempted steps; for the degenerate
    NaO-start trace both lists are empty and steps is 0.
    """

    iterates: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    converged: bool = False
    steps: int = 0

    def final_grad_norm(self) -> float:
        finite = [g for g in self.grad_norms if np.isfinite(g)]
        return finite[-1] if finite else float("nan")

    def to_record(self, prefix: str = "newton") -> dict:
        return {
            f"{prefix}_steps": self.steps,
            f"{prefix}_converged": int(self.converged),
            f"{prefix}_final_grad_norm": self.final_grad_norm(),
        }


def _finite_eval(q: Objective, delta: np.ndarray):
    ev = q(delta)
    if is_nao(ev) or not ev.all_finite():
        return NaO
    return ev


def _default_tol(value0: float) -> float:
    return 1e-8 * (1.0 + abs(value0))


def _step_from(delta: np.ndarray, ev) -> MaybeParam:
    h = -ev.hessian
    lower, _ = cholesky_pivots(h)
    if lower is None:
        return NaO
    return delta + spd_solve(lower, ev.gradient)


def newton_step(q: Objective, delta: MaybeParam) -> MaybeParam:
    """One Newton update ``delta + (-H)^{-1} grad``; NaO when undefined.

    Undefined means: NaO input, NaO or non-finite evaluation, or negative
    Hessian failing the positive-definite pivot test.
    """
    if is_nao(delta):
        return NaO
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    ev = _finite_eval(q, d)
    if is_nao(ev):
        return NaO
    return _step_from(d, ev)


def newton_iterate(
    q: Objective,
    delta0: MaybeParam,
    tol: float | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[MaybeParam, NewtonTrace]:
    """Iterate the Newton map until the gradient sup norm falls under ``tol``.

    Returns NaO when a step is undefined or ``max_steps`` is exhausted.  The
    default tolerance is value-relative: ``1e-8 * (1 + |q(delta0)|)``.
    """
    if is_nao(delta0):
        return NaO, NewtonTrace([], [], False, 0)
    cur = np.atleast_1d(np.asarray(delta0, dtype=float))
    iterates: list = [cur]
    grad_norms: list = []
    ev = _finite_eval(q, cur)
    if is_nao(ev):
        grad_norms.append(float("nan"))
        return NaO, NewtonTrace(iterates, grad_norms, False, 0)
    if tol is None:
        tol = _default_tol(ev.value)
    while True:
        grad_norms.append(float(np.max(np.abs(ev.gradient))))
        if grad_norms[-1] <= tol:
            return cur, NewtonTrace(iterates, grad_norms, True, len(iterates) - 1)
        if len(iterates) - 1 >= max_steps:
            return NaO, NewtonTrace(iterates, grad_norms, False, len(iterates) - 1)
        nxt = _step_from(cur, ev)
        iterates.append(nxt)
        if is_nao(nxt):
            grad_norms.append(float("nan"))
            return NaO, NewtonTrace(iterates, grad_norms, False, len(iterates) - 1)
        cur = nxt
        ev = _finite_eval(q, cur)
        if is_nao(ev):
            grad_norms.append(float("nan"))
            return NaO, NewtonTrace(iterates, grad_norms, False, len(iterates) - 1)


def safeguarded_maximize(
    q: Objective,
    delta0: np.ndarray,
    tol: float | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[MaybeParam, NewtonTrace]:
    """Newton ascent with Hessian shift and Armijo backtracking.

    When the negative Hessian fails the pivot test it is shifted by
    ``lambda I``, with ``lambda = max(0, 1e-8 - smallest pivot)`` escalated
    tenfold until positive definite; a lambda that overflows stops the run
    unconverged.  Step lengths are halved until the Armijo ascent condition
    holds, so objective values along the trace are nondecreasing.  Unlike
    :func:`newton_iterate` this never returns NaO; a start where the
    objective is NaO or non-finite raises ValueError.
    """
    if is_nao(delta0):
        raise ValueError("safeguarded_maximize requires a non-NaO start")
    cur = np.atleast_1d(np.asarray(delta0, dtype=float))
    ev = _finite_eval(q, cur)
    if is_nao(ev):
        raise ValueError("objective is not finite at the starting point")
    if tol is None:
        tol = _default_tol(ev.value)
    iterates: list = [cur]
    grad_norms: list = []
    converged = False
    steps = 0
    while True:
        grad = ev.gradient
        grad_norms.append(float(np.max(np.abs(grad))))
        if grad_norms[-1] <= tol:
            converged = True
            break
        if steps >= max_steps:
            break
        h = -ev.hessian
        lower, min_pivot = cholesky_pivots(h)
        lam = max(0.0, 1e-8 - min_pivot)
        if lam > 0.0:
            lower = None
            while lower is None and np.isfinite(lam):
                lower, _ = cholesky_pivots(h + lam * np.eye(h.shape[0]))
                if lower is None:
                    lam *= 10.0
            if lower is None:
                # the shift overflowed: no finite lambda passes the pivot test
                break
        direction = spd_solve(lower, grad)
        slope = float(grad @ direction)
        step = 1.0
        accepted = None
        while step >= MIN_BACKTRACK:
            trial = cur + step * direction
            et = _finite_eval(q, trial)
            if not is_nao(et) and et.value >= ev.value + ARMIJO_C * step * slope:
                accepted = (trial, et)
                break
            step /= 2.0
        if accepted is None:
            break
        cur, ev = accepted
        iterates.append(cur)
        steps += 1
    return cur, NewtonTrace(iterates, grad_norms, converged, steps)
