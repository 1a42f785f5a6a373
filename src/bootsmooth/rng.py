"""Deterministic random-stream derivation.

Every randomized routine in the package derives its stream from a master seed
plus an integer path, using a counter-based bit generator (Philox).  Streams
are therefore fully determined by ``(seed, path)`` and independent of call
order and chunking, which is what makes any one cell, replicate or
replication reproducible on its own.

Bootstrap replicate ``b`` still owns stream ``(seed, b)``: Philox keyed by
``SeedSequence(seed, spawn_key=(b,)).generate_state(2, np.uint64)``, counter
at zero.  A fit does not build that seed sequence once per replicate: it
derives the keys of all its replicates once, in one pass of
:func:`replicate_keys`, and :func:`keyed_generator` re-keys the process's one
Philox generator to each replicate's key in turn.  Building a ``Philox``
runs a whole ``SeedSequence``, which each replicate would otherwise pay
for.  Streams are therefore used serially, each drawn from right after its
own re-key.  The seed's part of the key comes from the pool of numpy's own
``SeedSequence(seed)``; only the spawn word and the output hash are computed
here, as array arithmetic.  The hashed spawn words do not depend on the
seed's value, so the last few replicate ranges keep theirs (a bounded memo
of read-only arrays).  A Philox stream is fully defined by its key and
counter (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011), so the draws are the same bytes.  ``tests/test_rng.py`` pins the
keys to numpy's ``SeedSequence`` (NEP 19), so a numpy release that changes
it fails there.
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


# The helpers below take 32-bit words as uint64 arrays and mask every
# product back to 32 bits, as SeedSequence's uint32 arithmetic wraps.


def _hash(value, hash_const, mult: int):
    """SeedSequence's word hash: the hashed ``value`` and the next hash constant.

    ``hash_const`` may be an array with one constant per column of ``value``.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _pool_consts(hash_const: int, mult: int) -> np.ndarray:
    """The hash constants of ``_POOL_SIZE`` consecutive hashes from ``hash_const`` on."""
    consts = [hash_const]
    for _ in range(_POOL_SIZE - 1):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint64)


# The hash constants of generate_state's output hashes, the same for every seed.
_OUTPUT_CONSTS = _pool_consts(_INIT_B, _MULT_B)


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


def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """The pool of ``SeedSequence(seed, spawn_key=(b,))`` before ``b`` is mixed in.

    Returns the four pool words (uint64) and the hash constant at that point;
    neither depends on ``b``.  A spawn key pads the seed's words with zeros
    up to the pool size, and ``SeedSequence(seed)`` hashes zeros into the
    pool once it runs out of words, so the pool is that of
    ``SeedSequence(seed)``.  Filling and cross-mixing the pool take 16
    hashes, and each seed word beyond the pool size 4 more.
    """
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    words = max(1, (seed.bit_length() + 31) // 32)
    hashes = 16 + 4 * max(0, words - _POOL_SIZE)
    return pool, (_INIT_A * pow(_MULT_A, hashes, 1 << 32)) & _MASK32


def replicate_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, b)`` for ``b`` in ``lo..hi-1``; (hi-lo, 2) uint64.

    Row ``b - lo`` equals ``SeedSequence(int(seed), spawn_key=(b,))
    .generate_state(2, np.uint64)``.  The seed's pool is taken once and the
    hashed spawn words come from the memo of :func:`_spawn_terms`; only the
    mix into the pool and the output hash run per replicate, as array
    arithmetic over the range.  A spawn word ``b >= 2**32`` would
    take two words in ``SeedSequence``; it is refused.
    """
    lo, hi = _word(lo), _word(hi)
    if not 0 <= lo <= hi:
        raise ValueError(f"replicate range must satisfy 0 <= lo <= hi, got {lo}..{hi}")
    if hi > 2**32:
        raise ValueError(f"replicate index must be < 2**32, got hi={hi}")
    pool, hash_const = _seed_pool(_word(seed))
    # SeedSequence's mix of the spawn word into each pool word
    words = (_MIX_MULT_L * pool - _spawn_terms(hash_const, lo, hi)) & _MASK32
    words ^= words >> _XSHIFT
    # generate_state(2, np.uint64): each pool word hashed once, paired low word first.
    words, _ = _hash(words, _OUTPUT_CONSTS, _MULT_B)
    return words[:, 0::2] | (words[:, 1::2] << 32)


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
