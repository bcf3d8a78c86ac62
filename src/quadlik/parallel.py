"""Replicate draws for simulation loops.

Every Monte Carlo loop in the package draws its data sets through
:func:`draw`: replicate ``i`` simulates from its own stream
``(seed, *path, i)`` (one :func:`~quadlik.rng.derive_rngs` call gives
all n), and all n data sets come from one ``model.simulate_stack`` call,
as one data stack.  Each caller evaluates that stack in place and counts
its own NaO rows.  Output therefore depends only on the seed and the path.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .rng import derive_rngs

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
    return model.simulate_stack(theta, derive_rngs(seed, path, n))
