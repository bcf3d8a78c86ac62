"""Replicate engine for simulation loops.

Every Monte Carlo loop in the package runs through :func:`replicates`, or
through :func:`stacked_replicates` where one call handles every replicate:
replicate ``i`` simulates from its own stream ``(seed, *path, i)``, results
are collected in replicate order, and NaO results are dropped and counted.
Output therefore depends on neither the order of the draws nor the
``workers`` argument, which the engine accepts and ignores.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from .core import is_nao
from .rng import derive_rng

T = TypeVar("T")


def parallel_map(fn: Callable[[int], T], n: int, workers: int = 1) -> list[T]:
    """``[fn(0), ..., fn(n-1)]`` in order.

    ``workers`` is accepted for compatibility and ignored: the replicates
    are short numpy calls that a thread pool only slowed down.
    """
    return [fn(i) for i in range(n)]


def replicates(model, theta, n: int, seed: int, path: tuple, fn, workers: int = 1) -> tuple[list, int]:
    """``fn(i, data)`` on n datasets simulated at theta from streams (seed, *path, i).

    Returns the non-NaO results in replicate order and the NaO count.
    """

    def one(i: int):
        return fn(i, model.simulate(theta, derive_rng(seed, *path, i)))

    kept = [r for r in parallel_map(one, n, workers) if not is_nao(r)]
    return kept, n - len(kept)


def stacked_replicates(model, theta, n: int, seed: int, path: tuple, fn) -> tuple[np.ndarray, int]:
    """:func:`replicates` with one call of ``fn`` for all n datasets.

    The datasets come from ``model.simulate_stack`` with the streams
    ``(seed, *path, i)``; ``fn(datas)`` returns ``(values, ok)``, one row of
    ``values`` per dataset and ``ok`` False where it is NaO.  Returns the
    rows where ``ok`` holds, in replicate order, and the NaO count.
    """
    datas = model.simulate_stack(theta, [derive_rng(seed, *path, i) for i in range(n)])
    values, ok = fn(datas)
    return values[ok], n - int(np.count_nonzero(ok))
