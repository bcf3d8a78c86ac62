"""One-step and iterated Newton maps with NaO semantics, plus a safeguard.

The plain Newton map is undefined whenever the negative Hessian is not
positive definite; in that case it returns NaO rather than raising, so the
frequency of failure is itself a measurable quantity downstream.  The
safeguarded variant shifts the Hessian and backtracks, guaranteeing monotone
ascent, and never returns NaO.  It runs in lockstep over a stack of
objectives (one per simulated data set), and a single fit is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    MaybeParam,
    NaO,
    Objective,
    OpenBox,
    StackedEval,
    StackedObjective,
    cholesky_pivots,
    is_nao,
    spd_solve,
)

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


def _default_tol(value0):
    return 1e-8 * (1.0 + np.abs(value0))


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

    :func:`lockstep_fit` on a stack of one.  Unlike
    :func:`newton_iterate` this never returns NaO; a start where the
    objective is NaO or non-finite raises ValueError.
    """
    if is_nao(delta0):
        raise ValueError("safeguarded_maximize requires a non-NaO start")
    cur = np.atleast_1d(np.asarray(delta0, dtype=float))
    stacked = StackedObjective.looped([q], OpenBox.unbounded(cur.size))
    theta, traces, _ = lockstep_fit(stacked, cur[None], tol, max_steps)
    if is_nao(traces[0]):
        raise ValueError("objective is not finite at the starting point")
    return theta[0], traces[0]


def lockstep_fit(
    q: StackedObjective,
    starts: np.ndarray,
    tol: float | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[np.ndarray, list, StackedEval]:
    """Safeguarded Newton ascent on every row of a stacked objective at once.

    Row ``i`` starts at ``starts[i]`` and runs exactly as it would alone.
    When its negative Hessian fails the pivot test it is shifted by
    ``lambda I``, with ``lambda = max(0, 1e-8 - smallest pivot)`` escalated
    tenfold until positive definite; a lambda that overflows stops the row
    unconverged.  Step lengths are halved until the Armijo ascent condition
    holds, down to ``MIN_BACKTRACK``, so objective values along each trace
    are nondecreasing.  A row stops when its gradient sup norm falls under
    its tolerance (by default ``1e-8 * (1 + |q(start)|)``) or after
    ``max_steps`` steps; stopped rows drop out of later evaluations.

    Returns the final points ``(m, p)``, one :class:`NewtonTrace` per row
    (NaO for a row whose objective is NaO at its start), and each row's
    evaluation at its final point, the last one the ascent accepted.
    """
    starts = np.asarray(starts, dtype=float)
    m, p = starts.shape
    ev = q(np.arange(m), starts)
    # each row's current point and its packed (value, gradient, Hessian)
    cur, state = starts.copy(), ev.packed.copy()
    tols = _default_tol(state[:, 0]) if tol is None else np.full(m, float(tol))
    iterates = [[x] for x in starts]
    grad_norms: list = [[] for _ in range(m)]
    steps = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    live = np.flatnonzero(ev.ok)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            value, grad, hess = StackedEval.split(state[live], p)
            norms = np.abs(grad).max(axis=1)
            for i, g in zip(live.tolist(), norms.tolist()):
                grad_norms[i].append(g)
            met = norms <= tols[live]
            converged[live[met]] = True
            going = ~met & (steps[live] < max_steps)
            if not going.all():
                live, value, grad, hess = live[going], value[going], grad[going], hess[going]
                if not live.size:
                    break
            lower, min_pivot = cholesky_pivots(-hess)
            lam = 1e-8 - min_pivot
            shift = lam > 0.0
            if shift.any():
                lower[shift] = _shifted_factor(-hess[shift], lam[shift])
            # a row without a factor stops here: its shift overflowed, or its
            # pivot failed the floor while above 1e-8, so no shift applies
            factored = ~np.isnan(lower[:, 0, 0])
            if not factored.all():
                live, value, grad, lower = live[factored], value[factored], grad[factored], lower[factored]
            direction = spd_solve(lower, grad)
            slope = (grad * direction).sum(axis=1)
            pending = np.arange(live.size)
            step = 1.0
            while pending.size and step >= MIN_BACKTRACK:
                rows = live[pending]
                trial = cur[rows] + step * direction[pending]
                et = q(rows, trial)
                accept = et.ok & (et.packed[:, 0] >= value[pending] + ARMIJO_C * step * slope[pending])
                done = rows[accept]
                cur[done], state[done] = trial[accept], et.packed[accept]
                steps[done] += 1
                for i, t in zip(done.tolist(), trial[accept]):
                    iterates[i].append(t)
                pending = pending[~accept]
                step /= 2.0
            # rows whose backtracking found no ascent stop here
            live = np.delete(live, pending)
    traces = [
        NewtonTrace(iterates[i], grad_norms[i], bool(converged[i]), int(steps[i])) if ev.ok[i] else NaO
        for i in range(m)
    ]
    return cur, traces, StackedEval(state, ev.ok)


def _shifted_factor(h: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Factors of ``h + lambda I``, each lambda escalated tenfold until the pivot
    test passes; all NaN where lambda overflows first."""
    lower = np.full_like(h, np.nan)
    eye = np.eye(h.shape[-1])
    lam = lam.copy()
    pending = np.flatnonzero(np.isfinite(lam))
    with np.errstate(over="ignore"):
        while pending.size:
            factor, _ = cholesky_pivots(h[pending] + lam[pending, None, None] * eye)
            passed = ~np.isnan(factor[:, 0, 0])
            lower[pending[passed]] = factor[passed]
            pending = pending[~passed]
            lam[pending] *= 10.0
            pending = pending[np.isfinite(lam[pending])]
    return lower
