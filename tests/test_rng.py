"""Random streams: seeds, keys and generators against numpy's own SeedSequence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootsmooth import derive_seed, draw_replicates, kfold_split, smoothing
from bootsmooth import rng
from bootsmooth.rng import _cell_family, cell_families, generator, keyed_generator, replicate_keys


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


class TestCellFamily:
    """All cells' seeds and replicate keys at once, against numpy cell by cell."""

    # 1, 1, 2, 4, 5 and 7 words of 32 bits
    SEEDS = [0, 2**32 - 1, 2**64 - 1, 2**128 - 1, 2**128 + 5, 2**200]
    # (prefix, shape): paths of one to four words
    PATHS = [((), (3,)), ((7,), (2,)), ((), (2, 3)), ((), (2, 2, 3)), ((2, 5), (2, 2)),
             ((2**32 - 1, 0, 9), (2,))]

    @staticmethod
    def check(seed, prefix, shape, B):
        seeds, keys = _cell_family(seed, prefix, shape, B)
        size = math.prod(shape)
        assert seeds.shape == (size,) and keys.shape == (size, B, 2)
        assert seeds.dtype == keys.dtype == np.uint64
        for c, index in enumerate(np.ndindex(*shape)):
            cell = derive_seed(seed, *prefix, *index)
            assert int(seeds[c]) == cell, index
            np.testing.assert_array_equal(keys[c], seed_sequence_keys(cell, 0, B))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prefix, shape", PATHS)
    def test_equal_to_derive_seed_and_seed_sequence(self, seed, prefix, shape):
        self.check(seed, prefix, shape, 3)

    @pytest.mark.parametrize("B", [1, smoothing.REPLICATE_CHUNK + 3])
    def test_one_replicate_and_more_than_a_chunk(self, B):
        self.check(2**64 - 1, (2, 4), (2, 1), B)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**64 - 1), st.integers(0, 2**256)),
        prefix=st.lists(st.integers(0, 2**32 - 1), max_size=3),
        shape=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
        B=st.integers(0, 4),
    )
    def test_property_equal_to_derive_seed_and_seed_sequence(self, seed, prefix, shape, B):
        self.check(seed, tuple(prefix), shape, B)

    @pytest.mark.parametrize("seed, path", [(-1, (0,)), (2.5, (0,)), (0, (-1,)), (0, (1.5,))])
    def test_refuses_what_derive_seed_refuses(self, seed, path):
        with pytest.raises(ValueError):
            derive_seed(seed, *path, 0)
        with pytest.raises(ValueError):
            _cell_family(seed, path, (2,), 4)

    def test_a_path_word_of_two_seed_sequence_words_is_refused(self):
        # derive_seed takes it as two spawn-key words; a family takes one word per path entry
        with pytest.raises(ValueError, match=r"path words must lie in 0\.\.2\*\*32-1"):
            _cell_family(3, (2**32,), (2,), 4)

    def test_keys_are_read_only(self):
        _, keys = _cell_family(3, (1,), (2,), 4)
        with pytest.raises(ValueError, match="read-only"):
            keys[0, 0, 0] = 0

    @pytest.mark.parametrize("B", [3, 200, rng.FAMILY_KEYS + 1])
    @pytest.mark.parametrize("shape", [(1,), (32,), (33,), (9, 8), (3, 5, 7)])
    def test_cell_families_walk_the_cells_in_c_order(self, shape, B):
        # every cell's seed and keys, from the key pass that holds the cell:
        # max(1, FAMILY_KEYS // B) cells, 32 at B = 200, so the larger shapes
        # take several passes
        cells = np.ndindex(*shape)
        for seeds, keys in cell_families(2**64 + 3, (5,), shape, B):
            assert keys.shape[:2] == (len(seeds), B)
            assert len(seeds) * B <= max(B, rng.FAMILY_KEYS)
            for cell, cell_keys in zip(seeds.tolist(), keys, strict=True):
                index = next(cells)
                assert cell == derive_seed(2**64 + 3, 5, *index), index
                assert cell_keys[:3].tobytes() == seed_sequence_keys(cell, 0, 3).tobytes()
        assert next(cells, None) is None

    def test_cell_families_memory_does_not_grow_with_the_cells(self):
        # the default study sweeps, 46 x 4 cells at B = 200: one family of all
        # of them peaked at 1.69 MB; in passes of at most FAMILY_KEYS keys the
        # peak is one pass's working set plus the previous pass's keys
        assert rng.FAMILY_KEYS >= 30 * 200  # a simulate replication's 30 cells take one pass
        assert rng.FAMILY_KEYS >= 3 * 18 * 40  # so does a whole fit_demand surface
        shape, B = (46, 4), 200

        def peak(derive):
            tracemalloc.start()
            try:
                derive()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole = peak(lambda: _cell_family(7, (2, 0), shape, B))
        one_batch = peak(lambda: _cell_family(7, (2, 0), shape, B, 0, rng.FAMILY_KEYS // B))
        batched = peak(lambda: all(True for _ in cell_families(7, (2, 0), shape, B)))
        assert batched < whole / 3, (batched, whole)
        assert batched < 2 * one_batch, (batched, one_batch)


class TestReplicateKeysAlone:
    """replicate_keys depends on its arguments alone: no key pass is memoised."""

    @pytest.mark.parametrize("lo, hi", [(0, 40), (7, 31), (39, 40), (5, 41), (0, 300)])
    def test_same_bytes_before_and_after_a_walk_and_no_shared_memory(self, lo, hi):
        cell = derive_seed(11, 4, 2, 1)
        before = replicate_keys(cell, lo, hi)
        passes = list(cell_families(11, (4,), (3, 2), 40))
        assert cell in passes[0][0].tolist()
        after = replicate_keys(cell, lo, hi)
        assert before.tobytes() == after.tobytes() == seed_sequence_keys(cell, lo, hi).tobytes()
        for keys in (before, after):
            assert not any(np.shares_memory(keys, pass_keys) for _, pass_keys in passes)


class TestReplicateStreams:
    SEEDS = (0, 2**32, derive_seed(3, 1))

    @staticmethod
    def keys(seed, lo, hi):
        return dict(zip(range(lo, hi), replicate_keys(seed, lo, hi).tolist()))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_fresh_generators(self, seed):
        keys = self.keys(seed, 60, 70)
        # out of order, and after partial draws that leave words buffered
        for b in (65, 60, 69, 65, 61):
            gen = keyed_generator(keys[b])
            want = generator(seed, b)
            assert gen.integers(0, 2**32, size=3, dtype=np.uint32).tobytes() == want.integers(
                0, 2**32, size=3, dtype=np.uint32
            ).tobytes()
            assert gen.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
            assert gen.random(3).tobytes() == want.random(3).tobytes()

    def test_seeds_include_a_key_word_of_2_pow_63_or_more(self):
        # the keys are passed as Python ints, and such a word needs the
        # conversion of a Python int wider than an int64
        keys = np.vstack([replicate_keys(seed, 60, 70) for seed in self.SEEDS])
        assert keys.max() >= 2**63

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_stream_sets_used_alternately_draw_their_own_streams(self, seed):
        # every key re-keys one shared generator; each draws right after
        # its own keyed_generator call
        first, second = self.keys(seed, 0, 4), self.keys(seed + 1, 2, 6)
        for keys, s, b in ((first, seed, 1), (second, seed + 1, 2), (first, seed, 3),
                           (second, seed + 1, 5), (first, seed, 1)):
            got = keyed_generator(keys[b]).standard_normal(7)
            assert got.tobytes() == generator(s, b).standard_normal(7).tobytes(), (s, b)

    def test_rekey_restarts_the_stream(self):
        keys = self.keys(4, 0, 2)
        first = keyed_generator(keys[1]).standard_normal(9)
        keyed_generator(keys[0]).standard_normal(4)
        again = keyed_generator(keys[1]).standard_normal(9)
        assert first.tobytes() == again.tobytes()


class TestIntegerSeeds:
    """A seed or path word that is not an integer is refused, not truncated."""

    def test_generator_refuses_a_fractional_seed_or_path_word(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
            generator(2.5)
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            generator(0, 1.5)

    def test_derive_seed_refuses_a_fractional_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
            derive_seed(2.7, 1)

    @pytest.mark.parametrize("seed, lo, hi", [(2.5, 0, 4), (0, 0.0, 4), (0, 0, 4.0)])
    def test_replicate_keys_refuses_fractional_words(self, seed, lo, hi):
        with pytest.raises(ValueError, match="seed must be an integer"):
            replicate_keys(seed, lo, hi)

    def test_draw_replicates_refuses_a_fractional_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
            draw_replicates(np.zeros(2), 1.0, 2, 2.5)

    def test_kfold_split_refuses_a_fractional_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            kfold_split(10, 2, 1.5)

    def test_numpy_integers_are_accepted(self):
        assert derive_seed(np.int64(3), np.uint8(1)) == derive_seed(3, 1)
        np.testing.assert_array_equal(
            replicate_keys(np.int64(9), np.int32(2), np.uint64(6)), replicate_keys(9, 2, 6)
        )
        assert generator(np.int64(4)).random() == generator(4).random()


def philox_of_seed_sequence(seed, path):
    """numpy's own generator for the stream ``(seed, path)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path))))


# seeds of 1, 2, 4, 5 and 7 words of 32 bits
WORD_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 5, 2**128 - 1, 2**128, 2**150 + 3, 2**224 - 1]
# paths of zero to four spawn-key entries; one >= 2**32 is two SeedSequence words
WORD_PATHS = [(), (0,), (2**32 - 1,), (2**32,), (3, 2**40 + 7), (1, 2, 3), (2**64 - 1, 0, 5, 9)]


class TestSeedsAndGenerators:
    """derive_seed and generator against SeedSequence and Philox(SeedSequence)."""

    @staticmethod
    def check(seed, path):
        want = np.random.SeedSequence(seed, spawn_key=tuple(path))
        assert derive_seed(seed, *path) == int(want.generate_state(1, np.uint64)[0])
        got, ref = generator(seed, *path), philox_of_seed_sequence(seed, path)
        assert got.integers(0, 2**64 - 1, size=3, dtype=np.uint64, endpoint=True).tobytes() == (
            ref.integers(0, 2**64 - 1, size=3, dtype=np.uint64, endpoint=True).tobytes()
        )
        assert got.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    @pytest.mark.parametrize("path", WORD_PATHS)
    def test_equal_to_seed_sequence(self, seed, path):
        self.check(seed, path)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**64 - 1),
            st.integers(2**96, 2**128 - 1),
            st.integers(2**128, 2**160 - 1),
            st.integers(2**192, 2**224 - 1),
        ),
        path=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)), max_size=4),
    )
    def test_property_equal_to_seed_sequence(self, seed, path):
        self.check(seed, path)

    def test_a_key_word_of_2_pow_53_or_more_is_kept_exact(self):
        # a Philox key given as Python ints goes through float64 and would lose such a word's low bits
        want = np.random.SeedSequence(5, spawn_key=(1,)).generate_state(2, np.uint64)
        assert want.max() >= 2**53
        key = generator(5, 1).bit_generator.state["state"]["key"]
        assert key.dtype == np.uint64 and key.tolist() == want.tolist()
        self.check(5, (1,))

    def test_two_generators_of_one_stream_drawn_alternately(self):
        # each call builds a fresh generator: neither is the shared keyed one
        first, second = generator(8, 2, 1), generator(8, 2, 1)
        keys = replicate_keys(8, 0, 2).tolist()
        assert first is not second and keyed_generator(keys[0]) not in (first, second)
        got = {id(first): [], id(second): []}
        for _ in range(3):
            for gen in (first, second):
                got[id(gen)].append(gen.standard_normal(4).tobytes())
                keyed_generator(keys[1]).standard_normal(3)
        assert got[id(first)] == got[id(second)]
        want = philox_of_seed_sequence(8, (2, 1))
        assert got[id(first)] == [want.standard_normal(4).tobytes() for _ in range(3)]

    def test_uint32_array_path_words_give_an_array_of_seeds(self):
        index = np.arange(5, dtype=np.uint32)
        seeds = derive_seed(7, 3, index)
        assert seeds.dtype == np.uint64 and seeds.tolist() == [derive_seed(7, 3, i) for i in range(5)]
        # a uint32 array of seeds is padded as each seed alone is
        assert derive_seed(index, 2).tolist() == [derive_seed(i, 2) for i in range(5)]

    def test_other_arrays_are_refused(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            derive_seed(7, 3, np.arange(5))

    @pytest.mark.parametrize(
        "seed, path",
        [(-1, ()), (-(2**40), (1,)), (2.5, ()), (1.0, (2,)), (0, (-1,)), (0, (3, -2)), (0, (1.5,)), (4, (2, 0.0))],
    )
    def test_negative_and_fractional_words_refused(self, seed, path):
        with pytest.raises(ValueError, match="seed must be"):
            derive_seed(seed, *path)
        with pytest.raises(ValueError, match="seed must be"):
            generator(seed, *path)
