"""One-step and iterated Newton maps with NaO semantics, plus a safeguard.

The plain Newton map is undefined whenever the negative Hessian is not
positive definite; in that case it returns NaO rather than raising, so the
frequency of failure is itself a measurable quantity downstream.  The
safeguarded variant shifts the Hessian and backtracks, guaranteeing monotone
ascent, and never returns NaO.  Both are modes of one engine,
:func:`lockstep_fit`, which runs over a stack of objectives (one per
simulated data set); a single fit or Newton step is a stack of one.  In the
plain mode a step counts when it is attempted, and a row whose pivot test
fails or whose step lands on an NaO evaluation stops NaO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    MaybeParam,
    NaO,
    RowObjective,
    StackedEval,
    StackedObjective,
    cholesky_pivots,
    is_nao,
    reduce_rows,
    spd_solve,
)

DEFAULT_MAX_STEPS = 100
ARMIJO_C = 1e-4
MIN_BACKTRACK = 2.0**-60


@dataclass(frozen=True, eq=False)
class NewtonTrace:
    """Summary of a Newton run: the steps it took, whether it met the
    gradient criterion, and the gradient sup norm of its last finite
    evaluation (NaN when its start had none).
    """

    steps: int = 0
    converged: bool = False
    final_grad_norm: float = float("nan")

    @classmethod
    def first_row(cls, thetas, steps, converged, final: StackedEval) -> "NewtonTrace":
        """Row 0 of a :func:`lockstep_fit` result ``(thetas, steps, converged, final)``."""
        norm = float(np.abs(final.packed[0, 1 : 1 + thetas.shape[1]]).max()) if final.ok[0] else float("nan")
        return cls(int(steps[0]), bool(converged[0]), norm)

    def to_record(self, prefix: str = "newton") -> dict:
        return {
            f"{prefix}_steps": self.steps,
            f"{prefix}_converged": int(self.converged),
            f"{prefix}_final_grad_norm": self.final_grad_norm,
        }


def _plain_fit(q: RowObjective, delta: MaybeParam, tol, max_steps: int):
    """:func:`lockstep_fit`'s plain mode on the stack of ``delta`` alone; None
    where ``delta`` is NaO or not one vector."""
    if is_nao(delta):
        return None
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    return lockstep_fit(q.stacked, d[None], tol, max_steps, plain=True) if d.ndim == 1 else None


def newton_step(q: RowObjective, delta: MaybeParam) -> MaybeParam:
    """One Newton update ``delta + (-H)^{-1} grad``; NaO when undefined.

    One step of :func:`lockstep_fit`'s plain mode on a stack of one, under a
    tolerance it cannot meet.  Undefined means: NaO input or a parameter that
    is not one vector, NaO evaluation, negative Hessian failing the
    positive-definite pivot test (the plain mode marks it with an all-NaN
    point), or a destination with any entry that is not finite, as where the
    solve overflows.  A finite destination is returned even where the
    objective is NaO there: the one-step estimator may leave the domain.
    """
    fit = _plain_fit(q, delta, -np.inf, 1)
    if fit is None:
        return NaO
    thetas, _, _, final = fit
    return thetas[0] if final.ok[0] and np.isfinite(thetas[0]).all() else NaO


def newton_iterate(
    q: RowObjective,
    delta0: MaybeParam,
    tol: float | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[MaybeParam, NewtonTrace]:
    """Iterate the Newton map until the gradient sup norm falls under ``tol``.

    :func:`lockstep_fit`'s plain mode on a stack of one.  Returns NaO when a
    step is undefined or ``max_steps`` is exhausted; the trace counts the
    failed step.  The default tolerance is value-relative: ``1e-8 * (1 +
    |q(delta0)|)``.
    """
    fit = _plain_fit(q, delta0, tol, max_steps)
    if fit is None:
        return NaO, NewtonTrace()
    trace = NewtonTrace.first_row(*fit)
    return (fit[0][0] if trace.converged else NaO), trace


def safeguarded_maximize(
    q: RowObjective,
    delta0: np.ndarray,
    tol: float | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[MaybeParam, NewtonTrace]:
    """Newton ascent with Hessian shift and Armijo backtracking.

    :func:`lockstep_fit` of ``q.stacked`` on a stack of one.  Unlike
    :func:`newton_iterate` this never returns NaO; a start where the
    objective is NaO or non-finite raises ValueError.
    """
    if is_nao(delta0):
        raise ValueError("safeguarded_maximize requires a non-NaO start")
    cur = np.atleast_1d(np.asarray(delta0, dtype=float))
    thetas, steps, converged, final = lockstep_fit(q.stacked, cur[None], tol, max_steps)
    if not final.ok[0]:
        raise ValueError("objective is not finite at the starting point")
    return thetas[0], NewtonTrace.first_row(thetas, steps, converged, final)


def lockstep_fit(
    q: StackedObjective,
    starts: np.ndarray,
    tol: float | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    plain: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, StackedEval]:
    """Safeguarded Newton ascent on every row of a stacked objective at once.

    Row ``i`` starts at ``starts[i]`` and runs exactly as it would alone.
    When its negative Hessian fails the pivot test it is shifted by
    ``lambda I``, with ``lambda = max(0, 1e-8 - smallest pivot)`` escalated
    tenfold until positive definite; a lambda that overflows stops the row
    unconverged.  Step lengths are halved until the Armijo ascent condition
    holds, down to ``MIN_BACKTRACK``, so objective values along each row's
    path are nondecreasing.  A row stops when its gradient sup norm falls under
    its tolerance (by default ``1e-8 * (1 + |q(start)|)``) or after
    ``max_steps`` steps; stopped rows drop out of later evaluations.

    Returns, per row, the final point ``(m, p)``, the number of steps taken
    ``(m,)``, whether the gradient criterion was met ``(m,)``, and the
    evaluation at the final point, the last one the ascent accepted.  A row
    whose objective is NaO at its start stays there, with ``final.ok``
    False, 0 steps and ``converged`` False.

    ``plain=True`` runs the plain Newton map instead: no shift and no
    backtracking, each live row takes its full step, and a step counts when
    it is attempted.  A row stops NaO where its pivot test fails (its point
    becomes NaN) or where its step lands on an NaO evaluation (its point is
    that destination); such a row is not converged, and its ``final`` row is
    its last finite evaluation, not the one at its final point.
    """
    starts = np.asarray(starts, dtype=float)
    m, p = starts.shape
    ev = q(np.arange(m), starts)
    # each row's current point and its packed (value, gradient, Hessian)
    cur, state = starts.copy(), ev.packed.copy()
    tols = 1e-8 * (1.0 + np.abs(state[:, 0])) if tol is None else np.full(m, float(tol))
    steps = np.zeros(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    live = np.flatnonzero(ev.ok)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            value, grad, hess = StackedEval.split(state[live], p)
            met = reduce_rows(np.maximum, np.abs(grad)) <= tols[live]
            converged[live[met]] = True
            going = ~met & (steps[live] < max_steps)
            if not going.all():
                live, value, grad, hess = live[going], value[going], grad[going], hess[going]
                if not live.size:
                    break
            lower, min_pivot = cholesky_pivots(-hess)
            if plain:
                # a row without a factor steps to NaN; a row whose evaluation
                # is NaO keeps its last finite one and stops
                cur[live] += spd_solve(lower, grad)
                steps[live] += 1
                et = q(live, cur[live])
                state[live[et.ok]] = et.packed[et.ok]
                live = live[et.ok]
                continue
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
            slope = reduce_rows(np.add, grad * direction)
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
                pending = pending[~accept]
                step /= 2.0
            # rows whose backtracking found no ascent stop here
            live = np.delete(live, pending)
    return cur, steps, converged, StackedEval(state, ev.ok)


def _shifted_factor(h: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Factors of ``h + lambda I``, each lambda escalated tenfold until the pivot
    test passes; all NaN where lambda overflows first."""
    lower = np.full_like(h, np.nan)
    eye = np.eye(h.shape[-1])
    lam = lam.copy()
    pending = np.flatnonzero(np.isfinite(lam))
    # lambda's overflow is silent: lockstep_fit calls this under errstate(over="ignore")
    while pending.size:
        factor, _ = cholesky_pivots(h[pending] + lam[pending, None, None] * eye)
        passed = ~np.isnan(factor[:, 0, 0])
        lower[pending[passed]] = factor[passed]
        pending = pending[~passed]
        lam[pending] *= 10.0
        pending = pending[np.isfinite(lam[pending])]
    return lower
