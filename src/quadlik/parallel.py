"""Replicate engine for simulation loops.

Every Monte Carlo loop in the package draws its data sets through
:func:`draw`: replicate ``i`` simulates from its own stream
``(seed, *path, i)``, and all n data sets come from one
``model.simulate_stack`` call, as one data stack.  :func:`replicates` hands
it to ``fn`` and keeps the rows that are not NaO, in replicate order,
counting the rest.  Output therefore depends only on the seed and the path.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from .rng import derive_rng

T = TypeVar("T")


# nothing in the package calls it; bench/tracing.py binds it by name
def parallel_map(fn: Callable[[int], T], n: int, workers: int = 1) -> list[T]:
    """``[fn(0), ..., fn(n-1)]`` in order.

    ``workers`` is accepted for compatibility and ignored: the replicates
    are short numpy calls that a thread pool only slowed down.
    """
    return [fn(i) for i in range(n)]


def draw(model, theta, n: int, seed: int, path: tuple):
    """The data stack of n data sets at theta, data set ``i`` from the stream
    ``(seed, *path, i)``."""
    return model.simulate_stack(theta, [derive_rng(seed, *path, i) for i in range(n)])


def replicates(model, theta, n: int, seed: int, path: tuple, fn) -> tuple[np.ndarray, int]:
    """``fn`` on the n data sets :func:`draw` gives, with NaO accounting.

    ``fn(stack)`` returns ``(values, ok)``: an array with one row per data
    set and ``ok`` False where that row is NaO.  Returns the rows where
    ``ok`` holds, in replicate order, and the NaO count.
    """
    values, ok = fn(draw(model, theta, n, seed, path))
    return values[ok], n - int(np.count_nonzero(ok))
