"""Deterministic stream derivation for reproducible Monte Carlo.

Every stochastic procedure in the package takes an integer seed and derives
one independent counter-based stream per replicate from ``(seed, *path)``.
A replicate's stream depends only on the seed and its path, never on draw
order elsewhere, so results are bit-identical whatever order the
replicates are drawn in.

Philox is counter-based, so a stream is just its key.  :func:`derive_streams`
makes the keys of a whole level, ``(seed, *path, j)`` for each of its
paths, in one hash pass, and :class:`KeyedStreams` serves them all from one
generator re-keyed per stream as it is iterated, through a state held in
Python lists, which numpy's Philox state setter reads faster than arrays;
``parallel.draw`` takes every level's streams from it.  A draw only
iterates over its streams, once, and never restarts one.  :func:`derive_rng`
is the one-stream path, and the reference that :func:`derive_streams`
equals bit for bit.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

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


def _philox_key(pool) -> np.ndarray:
    """``generate_state(2, np.uint64)`` of a mixed pool: the Philox key, shape
    ``(..., 2)``, over the pool words' shape."""
    state, const = [], _INIT_B
    for p in pool:
        h, const = _hashmix(p, const, _MULT_B)
        state.append(h)
    # generate_state(2, np.uint64) pairs the four uint32 words little-endian
    return np.stack(np.broadcast_arrays(state[0] | state[1] << 32, state[2] | state[3] << 32), axis=-1)


class KeyedStreams:
    """Philox streams given by their keys, served by one generator.

    Iterating re-keys that generator inline, stream after stream, each at
    its start: counter 0, empty buffer, no saved uint32, which is exactly a
    fresh ``Philox`` of the key.  A stream is therefore valid only until the
    next one is served; a draw makes one pass, finishing each stream before
    it asks for the next.

    The fresh state is held with Python lists where numpy's state getter
    gives arrays (counter, key and buffer), and the keys as a list of
    ``[k0, k1]`` pairs: Philox's state setter reads list items at about
    half the cost of array items, and sets the same bits.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys.tolist()
        self._rng = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
        start = self._rng.bit_generator.state
        start["state"] = {part: words.tolist() for part, words in start["state"].items()}
        start["buffer"] = start["buffer"].tolist()
        self._start = start

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        rng, start = self._rng, self._start
        bit_generator, state = rng.bit_generator, start["state"]
        for key in self.keys:
            state["key"] = key
            bit_generator.state = start
            yield rng


def derive_streams(seed: int, paths, n: int) -> KeyedStreams:
    """The streams ``(seed, *path, j)`` for each path and ``j < n``, path by
    path: stream ``c * n + j`` equals ``derive_rng(seed, *paths[c], j)`` bit
    for bit.

    One key pass: the SeedSequence hash runs once, in Python ints, over the
    words every stream shares, the seed's words padded to four and the
    paths' common leading words.  The words that differ, the rest of each
    path and ``j``, are mixed in as uint64 arrays, one per path length in
    words.  Holds for n <= 2**32, where ``j`` is one word.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("the seed must be non-negative")
    run = _words(seed)
    head = run + [0] * (_POOL_SIZE - len(run))
    tails = [[w for c in path for w in _words(_component(c))] for path in paths]
    common = list(os.path.commonprefix(tails))  # compares any sequences, item by item
    pool, const = _prefix_pool(head + common)
    by_length: dict[int, list[int]] = {}
    for c, tail in enumerate(tails):
        by_length.setdefault(len(tail), []).append(c)
    keys = np.empty((len(tails), n, 2), dtype=np.uint64)
    index = np.arange(n, dtype=np.uint64)
    for rows in by_length.values():
        mixed, mixed_const = list(pool), const
        for word in np.array([tails[c][len(common) :] for c in rows], dtype=np.uint64).T:
            mixed, mixed_const = _absorb(mixed, mixed_const, word[:, None])
        keys[rows] = _philox_key(_absorb(mixed, mixed_const, index)[0])
    return KeyedStreams(keys.reshape(-1, 2))
