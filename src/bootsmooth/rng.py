"""Deterministic random-stream derivation.

Every randomized routine in the package derives its stream from a master seed
plus an integer path, using a counter-based bit generator (Philox).  Streams
are therefore fully determined by ``(seed, path)`` and independent of call
order and chunking, which is what makes any one cell, replicate or
replication reproducible on its own.

Bootstrap replicate ``b`` still owns stream ``(seed, b)``: Philox keyed by
``SeedSequence(seed, spawn_key=(b,)).generate_state(2, np.uint64)``, counter
at zero.  A replicate chunk does not build that seed sequence once per
replicate.  :func:`replicate_keys` computes the keys of the whole chunk in
one pass, and :class:`ReplicateStreams` re-keys one generator per replicate.
A Philox stream is fully defined by its key and counter (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so the draws are
the same bytes.  ``tests/test_rng.py`` pins the keys to numpy's
``SeedSequence`` (NEP 19), so a numpy release that changes it fails there.
"""

from __future__ import annotations

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


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """Seed sequence for the stream addressed by ``(seed, path)``."""
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))


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


# The helpers below take 32-bit words as Python ints or as uint64 arrays
# and mask every product back to 32 bits, as SeedSequence's uint32
# arithmetic wraps.


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


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The pool of ``SeedSequence(seed, spawn_key=(b,))`` before ``b`` is mixed in.

    Returns the four pool words and the hash constant at that point; neither
    depends on ``b``.  A spawn key pads the seed's words to the pool size
    with zeros; words beyond the pool size are mixed in after the pool's
    cross-mix, as the spawn word is.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hash(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hash(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


def replicate_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, b)`` for ``b`` in ``lo..hi-1``; (hi-lo, 2) uint64.

    Row ``b - lo`` equals ``SeedSequence(int(seed), spawn_key=(b,))
    .generate_state(2, np.uint64)``.  The seed's part of the pool is mixed
    once; only the spawn word ``b`` and the output hash run per replicate,
    as array arithmetic over the chunk.  A spawn word ``b >= 2**32`` would
    take two words in ``SeedSequence``; it is refused.
    """
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi:
        raise ValueError(f"replicate range must satisfy 0 <= lo <= hi, got {lo}..{hi}")
    if hi > 2**32:
        raise ValueError(f"replicate index must be < 2**32, got hi={hi}")
    pool, hash_const = _seed_pool(int(seed))
    b = np.arange(lo, hi, dtype=np.uint64)[:, None]
    # The spawn word is hashed into each pool word in turn, one hash each.
    value, _ = _hash(b, _pool_consts(hash_const, _MULT_A), _MULT_A)
    words = _mix(np.array(pool, dtype=np.uint64), value)
    # generate_state(2, np.uint64): each pool word hashed once, paired low word first.
    words, _ = _hash(words, _pool_consts(_INIT_B, _MULT_B), _MULT_B)
    return words[:, 0::2] | (words[:, 1::2] << 32)


class ReplicateStreams:
    """The streams ``(seed, b)`` of replicates ``lo..hi-1``, served by one Philox generator.

    :meth:`generator` resets that generator to replicate ``b``'s stream (its
    key, a zero counter and an empty output buffer), so it draws exactly what
    ``generator(seed, b)`` draws.  The generator it returns is shared: the
    next call restarts it on another stream.
    """

    def __init__(self, seed: int, lo: int, hi: int):
        self.lo = int(lo)
        self.keys = replicate_keys(seed, lo, hi)
        # Seeded only to skip an entropy read; generator() sets every field.
        self._bit_generator = np.random.Philox(0)
        self._generator = np.random.Generator(self._bit_generator)
        self._stream = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
        self._state = {
            "bit_generator": "Philox",
            "state": self._stream,
            "buffer": np.zeros(_PHILOX_BUFFER_SIZE, dtype=np.uint64),
            "buffer_pos": _PHILOX_BUFFER_SIZE,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def generator(self, b: int) -> np.random.Generator:
        """Replicate ``b``'s generator, at the start of stream ``(seed, b)``."""
        if not self.lo <= b < self.lo + len(self.keys):
            raise IndexError(f"replicate {b} is outside {self.lo}..{self.lo + len(self.keys) - 1}")
        self._stream["key"] = self.keys[b - self.lo]
        self._bit_generator.state = self._state
        return self._generator
