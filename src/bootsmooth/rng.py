"""Deterministic random-stream derivation.

Every randomized routine in the package derives its stream from a master seed
plus an integer path, using a counter-based bit generator (Philox).  Streams
are therefore fully determined by ``(seed, path)`` and independent of call
order and chunking, which is what makes any one cell, replicate or
replication reproducible on its own.

Bootstrap replicate ``b`` still owns stream ``(seed, b)``: Philox keyed by
``SeedSequence(seed, spawn_key=(b,)).generate_state(2, np.uint64)``, counter
at zero.  Building a ``Philox`` runs a whole ``SeedSequence``, which each
replicate would otherwise pay for, so a fit derives the keys of all its
replicates at once (:func:`replicate_keys`), and :func:`keyed_generator`
re-keys the process's one Philox generator to each replicate's key in turn.
Streams are therefore used serially, each drawn from right after its own
re-key.  The keys are computed here, with ``SeedSequence``'s own hashes:
:func:`_mix_pool` is its pool mix, on Python ints or on uint64 arrays, and
the hashed spawn words, which do not depend on the seed's value, are kept
for the last few replicate ranges (a bounded memo of read-only arrays).

A CV surface (one fold at a time) or a study replication derives all its
cells at once (:func:`_cell_family`): the cell seeds ``derive_seed(seed,
*path)`` and every replicate key of every cell, in one pass of array
arithmetic over the cells.  :func:`replicate_keys` then serves a cell's keys
from that last family.  Keys are a function of the seed alone, so the
streams, and every draw, are the same as a cell derived on its own.  A
Philox stream is fully defined by its key and counter (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so the draws are
the same bytes.  ``tests/test_rng.py`` pins the seeds and keys to numpy's
``SeedSequence`` (NEP 19), so a numpy release that changes it fails there.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# numpy loads its random module lazily; every command draws, so load it with
# the package rather than inside the first draw.
import numpy.random

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# Philox's output buffer holds four words; this position marks it empty.
_PHILOX_BUFFER_SIZE = 4


def _word(value) -> int:
    """A seed or path word as an int; a ``ValueError`` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {value}") from None


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """Seed sequence for the stream addressed by ``(seed, path)``."""
    return np.random.SeedSequence(_word(seed), spawn_key=tuple(_word(p) for p in path))


def generator(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream addressed by ``(seed, path)``."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, path)`` into a single integer usable as a child seed.

    Used where an API accepts one seed but the caller owns a whole family of
    independent sub-tasks (cross-validation cells, study replications, sweep
    points).  Distinct paths give statistically independent children.
    """
    return int(seed_sequence(seed, *path).generate_state(1, np.uint64)[0])


# The helpers below take 32-bit words as Python ints or uint64 arrays and
# mask every product back to 32 bits, as SeedSequence's uint32 arithmetic
# wraps.


def _hash(value, hash_const, mult: int):
    """SeedSequence's word hash: the hashed ``value`` and the next hash constant.

    ``hash_const`` may be an array with one constant per column of ``value``.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(word, hashed):
    """SeedSequence's mix of the ``hashed`` word into the pool word ``word``."""
    word = (_MIX_MULT_L * word - _MIX_MULT_R * hashed) & _MASK32
    return word ^ (word >> _XSHIFT)


def _pool_consts(hash_const: int, mult: int) -> np.ndarray:
    """The hash constants of ``_POOL_SIZE`` consecutive hashes from ``hash_const`` on."""
    consts = [hash_const]
    for _ in range(_POOL_SIZE - 1):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint64)


# The hash constants of generate_state's output hashes, the same for every
# seed, and the constants they step to.
_OUTPUT_CONSTS = _pool_consts(_INIT_B, _MULT_B)
_OUTPUT_MULTS = (_OUTPUT_CONSTS * _MULT_B) & _MASK32


def _seed_words(seed) -> list[int]:
    """``seed``'s 32-bit words, low word first, padded with zeros to the pool size.

    SeedSequence pads so before a spawn key, and a zero word hashes into the
    pool as an empty slot does, so the padding holds with or without a path.
    """
    seed = _word(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [(seed >> shift) & _MASK32 for shift in range(0, seed.bit_length(), 32)]
    return words + [0] * (_POOL_SIZE - len(words))


def _mix_pool(words: list) -> tuple[list, int]:
    """SeedSequence's pool of the entropy ``words``, and the next hash constant.

    ``words`` holds at least ``_POOL_SIZE`` words, each a Python int or a
    uint64 array; a pool word becomes an array once an array is mixed in.
    """
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        word, hash_const = _hash(word, hash_const, _MULT_A)
        pool.append(word)
    # every pool word into every other, then each further word into each
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                hashed, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hash(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, hash_const


@functools.lru_cache(maxsize=8)
def _spawn_terms(hash_const: int, lo: int, hi: int) -> np.ndarray:
    """``_MIX_MULT_R`` times the hashed spawn words ``lo..hi-1``; (hi-lo, 4) uint64, read-only.

    The spawn word ``b`` is hashed into each pool word in turn, one hash
    each, from ``hash_const`` on.  Neither the hashes nor this term depend on
    the seed beyond ``hash_const``, which every seed below ``2**128``
    shares, so a fit reuses the terms of an earlier fit with as many
    replicates.
    """
    b = np.arange(lo, hi, dtype=np.uint64)[:, None]
    value, _ = _hash(b, _pool_consts(hash_const, _MULT_A), _MULT_A)
    term = _MIX_MULT_R * value
    term.setflags(write=False)
    return term


def _spawn_keys(pool: np.ndarray, hash_const: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of the spawn words ``lo..hi-1`` mixed into ``pool`` (..., 4); (..., hi-lo, 2).

    :func:`_mix`, then generate_state's :func:`_hash` of each pool word,
    paired low word first; in place, as a cell family's keys are its
    largest arrays.
    """
    words = _MIX_MULT_L * pool[..., None, :] - _spawn_terms(hash_const, lo, hi)
    words &= _MASK32
    words ^= words >> _XSHIFT
    words ^= _OUTPUT_CONSTS
    words *= _OUTPUT_MULTS
    words &= _MASK32
    words ^= words >> _XSHIFT
    words[..., 1::2] <<= 32
    return words[..., 0::2] | words[..., 1::2]


# The replicate keys of the last cell family, (cells, B, 2) read-only, and
# the row of each of its cell seeds.
_family = {"rows": {}, "keys": np.empty((0, 0, 2), dtype=np.uint64)}


def replicate_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, b)`` for ``b`` in ``lo..hi-1``; (hi-lo, 2) uint64.

    Row ``b - lo`` equals ``SeedSequence(int(seed), spawn_key=(b,))
    .generate_state(2, np.uint64)``.  A seed of the last
    :func:`_cell_family`, with ``hi`` within its B, is served from that
    family's keys as a read-only view: keys depend on the seed alone.
    Otherwise the seed's pool is mixed once and the spawn words come from
    :func:`_spawn_terms`.  A spawn word ``b >= 2**32`` would take two words
    in ``SeedSequence``; it is refused.
    """
    lo, hi = _word(lo), _word(hi)
    if not 0 <= lo <= hi:
        raise ValueError(f"replicate range must satisfy 0 <= lo <= hi, got {lo}..{hi}")
    if hi > 2**32:
        raise ValueError(f"replicate index must be < 2**32, got hi={hi}")
    seed = _word(seed)
    row = _family["rows"].get(seed)
    if row is not None and hi <= _family["keys"].shape[1]:
        return _family["keys"][row, lo:hi]
    pool, hash_const = _mix_pool(_seed_words(seed))
    return _spawn_keys(np.array(pool, dtype=np.uint64), hash_const, lo, hi)


def _cell_family(seed: int, prefix: tuple, shape: tuple, B: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeds and replicate keys of the cells ``derive_seed(seed, *prefix, *index)``.

    ``index`` runs over ``shape`` (one or more dimensions).  Returns the
    cell seeds, uint64 of ``shape``, and their keys, (*shape, B, 2) uint64
    read-only, ``keys[index]`` equal to ``replicate_keys(seeds[index], 0,
    B)``; the keys become the memo that :func:`replicate_keys` serves.  The
    seed and the prefix are mixed as Python ints, everything after them as
    uint64 arrays over all cells.  Every path word must be one
    ``SeedSequence`` word, below ``2**32``.
    """
    prefix = [_word(p) for p in prefix]
    if not all(0 <= p < 2**32 for p in prefix) or max(shape) > 2**32 or not 0 <= B <= 2**32:
        raise ValueError(
            f"path words must lie in 0..2**32-1 and B in 0..2**32, got {prefix}, {shape}, {B}"
        )
    index = np.indices(shape, dtype=np.uint64).reshape(len(shape), -1)
    pool, _ = _mix_pool(_seed_words(seed) + prefix + list(index))
    # generate_state(1, np.uint64): the low and the high word of each cell seed
    low, hash_const = _hash(pool[0], _INIT_B, _MULT_B)
    high, _ = _hash(pool[1], hash_const, _MULT_B)
    pool, hash_const = _mix_pool([low, high, 0, 0])
    keys = _spawn_keys(np.stack(pool, axis=-1), hash_const, 0, B)
    keys.setflags(write=False)
    seeds = low | (high << 32)
    _family["rows"] = dict(zip(seeds.tolist(), range(seeds.size)))
    _family["keys"] = keys
    return seeds.reshape(shape), keys.reshape(*shape, B, 2)


# The one Philox generator that keyed_generator re-keys, and the state it
# writes.  The state's words are Python ints: numpy's ``Philox.state`` setter
# reads them one element at a time, and each element read from a uint64
# array is a new numpy scalar, over half of a re-key's cost.  A Python int
# converts to the same uint64 word, including one >= 2**63.
_philox = _philox_generator = None
_stream = {"counter": [0] * 4, "key": None}
_philox_state = {
    "bit_generator": "Philox",
    "state": _stream,
    "buffer": [0] * _PHILOX_BUFFER_SIZE,
    "buffer_pos": _PHILOX_BUFFER_SIZE,
    "has_uint32": 0,
    "uinteger": 0,
}


def keyed_generator(key: list) -> np.random.Generator:
    """The one Philox generator, reset to the start of the stream with Philox key ``key``.

    ``key`` is a row of :func:`replicate_keys` as a list of Python ints, so
    the generator draws exactly what ``generator(seed, b)`` draws.  Every
    call returns the same generator.  It is built by the first call rather
    than at import, which raised the peak RSS of a ``simulate`` call by
    about 0.1 MB, and seeded only to skip an entropy read.
    """
    global _philox, _philox_generator
    if _philox is None:
        _philox = np.random.Philox(0)
        _philox_generator = np.random.Generator(_philox)
    _stream["key"] = key
    _philox.state = _philox_state
    return _philox_generator
