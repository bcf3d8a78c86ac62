"""Deterministic stream derivation for reproducible Monte Carlo.

Every stochastic procedure in the package takes an integer seed and derives
one independent counter-based stream per replicate from ``(seed, *path)``.
A replicate's stream depends only on the seed and its path, never on draw
order elsewhere, so results are bit-identical whatever order the
replicates are drawn in.

:func:`derive_rngs` gives the n streams ``(seed, *path, i)`` of a whole
level at once; ``parallel.draw`` takes every level's streams from it.
:func:`derive_rng` is the one-stream path, and the reference that
:func:`derive_rngs` equals bit for bit.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy.random.SeedSequence's hash (bit_generator.pyx): a pool of 4 uint32
# words, mixed with these constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def _words(i: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: uint32 words, least
    significant first, ``[0]`` for 0."""
    words = [i & _MASK32]
    i >>= 32
    while i:
        words.append(i & _MASK32)
        i >>= 32
    return words


# Each step below takes Python ints or uint64 arrays (a word per stream) and
# keeps 32 bits after every product, so both give SeedSequence's uint32 values.

def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix``: the hashed value and the next constant.
    With ``_MULT_B`` it is the step ``generate_state`` takes per output word."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: list, const: int, word):
    """Mix one entropy word past the first four into every pool word."""
    for dst in range(_POOL_SIZE):
        h, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], h)
    return pool, const


def _prefix_pool(words: list[int]):
    """The pool and hash constant after SeedSequence mixes ``words`` (at
    least four of them)."""
    const = _INIT_A
    pool = []
    for w in words[:_POOL_SIZE]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL_SIZE:]:
        pool, const = _absorb(pool, const, w)
    return pool, const


class _Key(ISeedSequence):
    """A Philox key already hashed.  Philox asks its seed sequence for
    ``generate_state(2, np.uint64)`` once; that request returns the key, and
    any other raises, so a numpy whose Philox asks for something else fails
    loudly instead of drawing other streams.  It cannot spawn."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key serves generate_state(2, uint64), not ({n_words}, {np.dtype(dtype)})")
        return self.key


def derive_rngs(seed: int, path: tuple, n: int) -> list[np.random.Generator]:
    """``[derive_rng(seed, *path, i) for i in range(n)]``, bit for bit.

    The SeedSequence hash runs once, in Python ints, over the words every
    stream shares: the seed's words padded to four, then the path's.  Only
    the last word, ``i``, differs; it is mixed in and the keys generated over
    all n streams as arrays.  Holds for n <= 2**32, where ``i`` is one word.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("the seed must be non-negative")
    run = _words(seed)
    words = run + [0] * (_POOL_SIZE - len(run))
    for c in path:
        words += _words(_component(c))
    pool, _ = _absorb(*_prefix_pool(words), np.arange(n, dtype=np.uint64))
    state, const = [], _INIT_B
    for p in pool:
        h, const = _hashmix(p, const, _MULT_B)
        state.append(h)
    # generate_state(2, np.uint64) pairs the four uint32 words little-endian
    keys = np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)
    return [np.random.Generator(np.random.Philox(_Key(k))) for k in keys]
