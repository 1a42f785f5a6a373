"""Random streams: the chunk's vectorised Philox keys against numpy's SeedSequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootsmooth import derive_seed
from bootsmooth.rng import ReplicateStreams, generator, replicate_keys


def seed_sequence_keys(seed, lo, hi):
    """The keys ``SeedSequence`` generates for the streams ``(seed, b)``; (hi-lo, 2)."""
    rows = [
        np.random.SeedSequence(int(seed), spawn_key=(b,)).generate_state(2, np.uint64)
        for b in range(lo, hi)
    ]
    return np.array(rows, dtype=np.uint64).reshape(hi - lo, 2)


SEEDS = [
    0,
    1,
    2**32 - 1,
    2**32,
    2**64 - 1,
    2**96 + 7,
    2**128 - 1,
    2**130 + 12345,  # five entropy words, one more than the pool holds
    2**200 + 2**150 + 3,
    derive_seed(0, 1, 0),
    derive_seed(42, 3, 1, 2),
    derive_seed(2**64 - 1, 7),
]
CHUNKS = [(0, 64), (64, 128), (200, 264), (60, 70), (127, 193), (5, 5), (1000, 1001)]


class TestReplicateKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("lo, hi", CHUNKS)
    def test_equal_to_seed_sequence(self, seed, lo, hi):
        got = replicate_keys(seed, lo, hi)
        assert got.dtype == np.uint64 and got.shape == (hi - lo, 2)
        np.testing.assert_array_equal(got, seed_sequence_keys(seed, lo, hi))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**64 - 1), st.integers(0, 2**256)),
        lo=st.one_of(st.integers(0, 300), st.integers(0, 2**32 - 70)),
        count=st.integers(0, 70),
    )
    def test_property_equal_to_seed_sequence(self, seed, lo, count):
        np.testing.assert_array_equal(
            replicate_keys(seed, lo, lo + count), seed_sequence_keys(seed, lo, lo + count)
        )

    def test_last_one_word_spawn_key(self):
        lo = 2**32 - 3
        np.testing.assert_array_equal(
            replicate_keys(9, lo, 2**32), seed_sequence_keys(9, lo, 2**32)
        )

    def test_two_word_spawn_key_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            replicate_keys(9, 2**32 - 1, 2**32 + 1)

    @pytest.mark.parametrize("seed, lo, hi", [(-1, 0, 4), (0, -1, 4), (0, 5, 4)])
    def test_bad_arguments_refused(self, seed, lo, hi):
        with pytest.raises(ValueError):
            replicate_keys(seed, lo, hi)


class TestReplicateStreams:
    @pytest.mark.parametrize("seed", [0, 2**32, derive_seed(3, 1)])
    def test_draws_equal_fresh_generators(self, seed):
        streams = ReplicateStreams(seed, 60, 70)
        # out of order, and after partial draws that leave words buffered
        for b in (65, 60, 69, 65, 61):
            gen = streams.generator(b)
            want = generator(seed, b)
            assert gen.integers(0, 2**32, size=3, dtype=np.uint32).tobytes() == want.integers(
                0, 2**32, size=3, dtype=np.uint32
            ).tobytes()
            assert gen.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
            assert gen.random(3).tobytes() == want.random(3).tobytes()

    def test_rekey_restarts_the_stream(self):
        streams = ReplicateStreams(4, 0, 2)
        first = streams.generator(1).standard_normal(9)
        streams.generator(0).standard_normal(4)
        again = streams.generator(1).standard_normal(9)
        assert first.tobytes() == again.tobytes()

    @pytest.mark.parametrize("b", [-1, 59, 70])
    def test_replicate_outside_chunk_refused(self, b):
        with pytest.raises(IndexError):
            ReplicateStreams(0, 60, 70).generator(b)
