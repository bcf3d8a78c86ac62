"""Replicate draws for simulation loops.

Every Monte Carlo loop in the package but two draws its data sets through
:func:`draw`, one call a level: data set ``j`` of centre ``c`` is simulated
at that centre from its own keyed stream ``(seed, *paths[c], j)``.  The
keys of all the level's streams come from one
:func:`~quadlik.rng.derive_streams` pass, and all its data sets from one
``model.simulate_stack`` call, n rows a centre, as one data stack.
Each caller evaluates that stack in place and counts its own NaO rows.
Output therefore depends only on the seed and the paths.  The two, ``lamn-verify``'s
contiguity check (``sample_lamn_batch``) and ``ar1-study``'s information check
(``ar1_simulate_paths``), draw from one stream: 100,000 keyed LAN draws took 0.26 s,
against 0.004 s for their normals from one stream (2-core Xeon, numpy 2.4.6).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .rng import derive_streams

T = TypeVar("T")


# nothing in the package calls it; bench/tracing.py binds it by name
def parallel_map(fn: Callable[[int], T], n: int, workers: int = 1) -> list[T]:
    """``[fn(0), ..., fn(n-1)]`` in order.

    ``workers`` is accepted for compatibility and ignored: the replicates
    are short numpy calls that a thread pool only slowed down.
    """
    return [fn(i) for i in range(n)]


def draw(model, centers, n: int, seed: int, paths: list):
    """The data stack of n data sets at each centre, centre by centre: row
    ``c * n + j`` is drawn at ``centers[c]`` from the stream ``(seed,
    *paths[c], j)``."""
    return model.simulate_stack(centers, derive_streams(seed, paths, n))
