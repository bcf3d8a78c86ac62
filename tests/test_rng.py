"""A level's keyed streams from one vectorized hash equal the one-stream path."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlik.rng import KeyedStreams, SnapshotStreams, derive_rng, derive_streams, restartable

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
        for c, path in enumerate(paths):
            for j in range(n):
                assert_fresh(streams[c * n + j], derive_rng(seed, *path, j))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), paths=PATHS.filter(len), used=st.integers(0, 7))
    def test_rekeyed_after_partial_use_is_fresh(self, seed, paths, used):
        """A stream re-keyed after another was partly used, leaving a buffered
        Philox block and a saved uint32 half, draws as a fresh generator."""
        streams = derive_streams(seed, paths, 2)
        for i in range(len(streams)):
            rng = streams[i]
            rng.random(used)
            rng.integers(0, 2**32, size=used % 3 + 1, dtype=np.uint32)
        last = len(paths) - 1
        assert_fresh(streams[0], derive_rng(seed, *paths[0], 0))
        assert_fresh(streams[2 * last + 1], derive_rng(seed, *paths[last], 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), paths=PATHS.filter(len), used=st.integers(0, 7))
    def test_iterated_after_partial_use_is_fresh(self, seed, paths, used):
        """Iteration re-keys inline: each stream it serves, after the one
        before was partly used (a buffered Philox block and a saved uint32
        half), draws as a fresh generator."""
        streams = derive_streams(seed, paths, 2)
        streams[len(streams) - 1].random(used)
        for i, rng in enumerate(streams):
            assert_fresh(rng, derive_rng(seed, *paths[i // 2], i % 2))
            rng.random(used)
            rng.integers(0, 2**32, size=used % 3 + 1, dtype=np.uint32)

    def test_restarted_stream_replays(self):
        streams = derive_streams(5, [("outer",), ("inner", 3)], 3)
        first = streams[4].standard_normal(7)
        streams[1].standard_normal(3)
        assert np.array_equal(streams[4].standard_normal(7), first)

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


class TestSnapshotStreams:
    def test_restart_puts_back_the_first_served_state(self):
        own = [derive_rng(9, i) for i in range(3)]
        own[1].random(5)  # a caller's generator need not be fresh
        streams = restartable(own)
        assert isinstance(streams, SnapshotStreams) and len(streams) == 3
        first = streams[1].standard_normal(4)
        streams[1].random(3)
        streams[2].random()
        assert np.array_equal(streams[1].standard_normal(4), first)

    def test_keyed_streams_are_restartable_as_they_are(self):
        streams = derive_streams(9, [("a",)], 2)
        assert restartable(streams) is streams and isinstance(streams, KeyedStreams)
