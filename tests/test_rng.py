"""A level's keyed streams from one vectorized hash equal the one-stream path."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlik.rng import derive_rng, derive_streams

# ints cross 2**32, where a component takes a second SeedSequence word;
# strings are crc32-hashed to one word
COMPONENTS = st.one_of(st.integers(0, 2**40), st.text(max_size=6))
PATHS = st.lists(st.lists(COMPONENTS, max_size=3).map(tuple), max_size=4)


def assert_fresh(rng, ref):
    """``rng`` has the state of the fresh generator ``ref`` and draws what it
    does, across the cached words: a uint32 half, then whole uint64s."""
    state, fresh = rng.bit_generator.state, ref.bit_generator.state
    for part in ("key", "counter"):
        np.testing.assert_array_equal(state["state"][part], fresh["state"][part])
    np.testing.assert_array_equal(state["buffer"], fresh["buffer"])
    assert [state[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
        fresh[k] for k in ("buffer_pos", "has_uint32", "uinteger")
    ]
    assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
    assert rng.standard_normal() == ref.standard_normal()
    assert rng.chisquare(3.5) == ref.chisquare(3.5)
    assert rng.standard_gamma(0.7) == ref.standard_gamma(0.7)
    assert rng.random() == ref.random()


class TestDeriveRngs:
    """A level's streams from ``derive_streams`` against ``derive_rng``."""

    # seeds past 2**128 have more run-entropy words than SeedSequence's pool of 4
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**130), paths=PATHS, n=st.integers(0, 16))
    @example(seed=0, paths=[()], n=3)
    @example(seed=2**128, paths=[(2**32, "outer"), ("outer",), (2**32, "outer")], n=2)
    @example(seed=2**32 - 1, paths=[(2**32 - 1, 0, 0, 0, 0), ("bootstrap", 1, 5)], n=2)
    @example(seed=7, paths=[("bootstrap", 1, i) for i in range(5)], n=3)
    def test_equals_derive_rng_bit_for_bit(self, seed, paths, n):
        streams = derive_streams(seed, paths, n)
        assert len(streams) == len(paths) * n
        refs = [derive_rng(seed, *path, j) for path in paths for j in range(n)]
        assert len(refs) == len(streams)
        for rng, ref in zip(streams, refs):
            assert_fresh(rng, ref)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), paths=PATHS.filter(len), used=st.integers(0, 7))
    def test_rekeyed_after_partial_use_is_fresh(self, seed, paths, used):
        """A second pass re-keys each stream after the last was partly used,
        leaving a buffered Philox block and a saved uint32 half: each stream
        it serves draws as a fresh generator."""
        streams = derive_streams(seed, paths, 2)
        for rng in streams:
            rng.random(used)
            rng.integers(0, 2**32, size=used % 3 + 1, dtype=np.uint32)
        for i, rng in enumerate(streams):
            assert_fresh(rng, derive_rng(seed, *paths[i // 2], i % 2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), paths=PATHS.filter(len), used=st.integers(0, 7))
    def test_iterated_after_partial_use_is_fresh(self, seed, paths, used):
        """Iteration re-keys inline: each stream it serves, after the one
        before was partly used (a buffered Philox block and a saved uint32
        half), draws as a fresh generator."""
        streams = derive_streams(seed, paths, 2)
        *_, last = streams
        last.random(used)
        for i, rng in enumerate(streams):
            assert_fresh(rng, derive_rng(seed, *paths[i // 2], i % 2))
            rng.random(used)
            rng.integers(0, 2**32, size=used % 3 + 1, dtype=np.uint32)

    def test_iteration_serves_each_stream_once_in_order(self):
        streams = derive_streams(5, [("a",), (2**33,)], 2)
        paths = [("a", 0), ("a", 1), (2**33, 0), (2**33, 1)]
        drawn = [rng.standard_normal(2) for rng in streams]
        assert [list(d) for d in drawn] == [list(derive_rng(5, *p).standard_normal(2)) for p in paths]

    def test_no_streams(self):
        assert len(derive_streams(3, [("outer",)], 0)) == 0
        assert len(derive_streams(3, [], 4)) == 0

    @pytest.mark.parametrize(
        "seed, path", [(-1, ()), (2, (-1,)), (2, ("outer", 5, -(2**40)))],
        ids=["seed", "component", "wide-component"],
    )
    def test_negative_input_raises(self, seed, path):
        with pytest.raises(ValueError, match="non-negative"):
            derive_streams(seed, [("ok",), path], 2)
        with pytest.raises(ValueError):
            derive_rng(seed, *path, 0)

