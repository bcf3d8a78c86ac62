"""A level's streams from one vectorized hash equal the one-stream path."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlik.rng import _Key, derive_rng, derive_rngs

# ints cross 2**32, where a component takes a second SeedSequence word;
# strings are crc32-hashed to one word
COMPONENTS = st.one_of(st.integers(0, 2**40), st.text(max_size=6))


class TestDeriveRngs:
    # seeds past 2**128 have more run-entropy words than SeedSequence's pool of 4
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**130),
        path=st.lists(COMPONENTS, max_size=3).map(tuple),
        n=st.integers(0, 64),
    )
    @example(seed=0, path=(), n=3)
    @example(seed=2**128, path=(2**32, "outer"), n=2)
    @example(seed=2**32 - 1, path=(2**32 - 1, 0, 0, 0, 0), n=2)
    def test_equals_derive_rng_bit_for_bit(self, seed, path, n):
        streams = derive_rngs(seed, path, n)
        assert len(streams) == n
        for i, rng in enumerate(streams):
            ref = derive_rng(seed, *path, i)
            np.testing.assert_array_equal(
                rng.bit_generator.state["state"]["key"], ref.bit_generator.state["state"]["key"]
            )
            assert rng.standard_normal() == ref.standard_normal()
            assert rng.chisquare(3.5) == ref.chisquare(3.5)
            assert rng.standard_gamma(0.7) == ref.standard_gamma(0.7)

    def test_no_streams(self):
        assert derive_rngs(3, ("outer",), 0) == []

    @pytest.mark.parametrize(
        "seed, path", [(-1, ()), (2, (-1,)), (2, ("outer", 5, -(2**40)))],
        ids=["seed", "component", "wide-component"],
    )
    def test_negative_input_raises(self, seed, path):
        with pytest.raises(ValueError, match="non-negative"):
            derive_rngs(seed, path, 2)
        with pytest.raises(ValueError):
            derive_rng(seed, *path, 0)

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint32), (4, np.uint64)])
    def test_key_serves_only_philox_request(self, n_words, dtype):
        key = _Key(np.array([1, 2], dtype=np.uint64))
        np.testing.assert_array_equal(key.generate_state(2, np.uint64), [1, 2])
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)
