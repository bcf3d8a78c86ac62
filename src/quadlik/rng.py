"""Deterministic stream derivation for reproducible Monte Carlo.

Every stochastic procedure in the package takes an integer seed and derives
one independent counter-based stream per replicate from ``(seed, *path)``.
A replicate's stream depends only on the seed and its path, never on draw
order elsewhere, so results are bit-identical whatever order the
replicates are drawn in.
"""

from __future__ import annotations

import zlib

import numpy as np


def _component(c) -> int:
    if isinstance(c, str):
        return zlib.crc32(c.encode("utf8"))
    i = int(c)
    if i < 0:
        raise ValueError("stream path components must be non-negative")
    return i


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Independent Philox stream keyed by ``(seed, *path)``.

    Path components are non-negative integers or short strings (hashed with
    crc32, stable across platforms and runs).
    """
    key = tuple(_component(c) for c in path)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
