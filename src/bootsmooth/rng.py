"""Deterministic random-stream derivation.

Every randomized routine draws from stream ``(seed, path)``: Philox keyed by
numpy's ``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``,
counter at zero (NEP 19), so any one cell, replicate or replication is
reproducible on its own, whatever the call order or chunking.  :func:`_state`
is the one copy of ``SeedSequence``'s arithmetic here; seeds, generators,
replicate keys and cell families are short compositions of it, pinned to
numpy's own in ``tests/test_rng.py``.  Replicate ``b`` of a fit owns stream
``(seed, b)``, and :func:`keyed_generator` re-keys one Philox generator to
each replicate's key in turn.  A Philox stream is fully defined by its key
and counter (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), so the draws are the bytes a fresh generator would give.  The
cells of a CV surface or a study replication have their seeds and replicate
keys derived together, by :func:`cell_families`, in key passes bounded by
``FAMILY_KEYS`` replicate keys rather than by a count of cells.
"""

from __future__ import annotations

import math
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

# Replicates a seed's streams can index: replicate b is one spawn word, b < 2**32.
MAX_REPLICATES = 2**32

# Replicate keys one _cell_family call derives, at most; a cell of more
# replicates takes a pass of its own.  A pass's keys and working arrays grow
# with cells x B: the 184 cells of the default study sweeps at B = 200
# peaked at 1.69 MB in one call.  32 cells of 200 keep a simulate
# replication (30 cells at B = 200) and a whole fit_demand surface (54 cells
# at B = 40) to one call.
FAMILY_KEYS = 32 * 200


def _word(value) -> int:
    """A seed or path word as an int; a ``ValueError`` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {value}") from None


def _words(value, size: int = 1) -> list:
    """``value``'s 32-bit words, low word first, padded with zeros to ``size``.

    ``SeedSequence`` pads a seed to the pool size before a spawn key, and a
    zero word hashes as an empty pool slot does.  A uint32 array is one word.
    """
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return [value] + [0] * (size - 1)
    value = _word(value)
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    words = [(value >> shift) & _MASK32 for shift in range(0, value.bit_length(), 32)]
    return words + [0] * (size - len(words))


# generate_state's hash constants; the pool words that each pool word mixes into.
_OUTPUT = np.array([_INIT_B] + [_MULT_B] * _POOL_SIZE, dtype=np.uint32).cumprod(dtype=np.uint32)
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]

# SeedSequence's hash and mix of 32-bit words, Python ints or arrays that
# broadcast; the first operation makes a new array, the rest work in it.


def _hash(value, const, next_const):
    value = value ^ const
    value *= next_const
    value &= _MASK32
    value ^= value >> _XSHIFT
    return value


def _mix(word, hashed):
    word = _MIX_MULT_L * word - _MIX_MULT_R * hashed
    word &= _MASK32
    word ^= word >> _XSHIFT
    return word


def _state(words: list, n: int) -> np.ndarray:
    """``SeedSequence`` of the entropy ``words``: ``generate_state(n // 2, np.uint64)``.

    ``words`` are at least ``_POOL_SIZE`` 32-bit words, Python ints or uint32
    arrays that broadcast; ``n <= _POOL_SIZE`` is even.  The first words mix
    as Python ints, or as one (..., 4) array, a pool word into the other
    three at once; each further word, hashed four times, into all four.
    """
    consts = np.array([_INIT_A] + [_MULT_A] * (_POOL_SIZE * len(words)), dtype=np.uint32)
    consts, head = consts.cumprod(dtype=np.uint32), words[:_POOL_SIZE]
    if all(isinstance(word, int) for word in head):
        c = consts.tolist()
        pool = [_hash(word, c[i], c[i + 1]) for i, word in enumerate(head)]
        for src, dst in enumerate(_OTHERS):
            for i, d in enumerate(dst, _POOL_SIZE + 3 * src):
                pool[d] = _mix(pool[d], _hash(pool[src], c[i], c[i + 1]))
        pool = np.array(pool, dtype=np.uint32)
    else:
        pool = np.empty((*np.broadcast(*head).shape, _POOL_SIZE), np.uint32)
        for i, word in enumerate(head):
            pool[..., i] = word
        pool = _hash(pool, consts[:_POOL_SIZE], consts[1 : _POOL_SIZE + 1])
        for src, dst in enumerate(_OTHERS):
            i = _POOL_SIZE + 3 * src
            hashed = _hash(pool[..., src, None], consts[i : i + 3], consts[i + 1 : i + 4])
            pool[..., dst] = _mix(pool[..., dst], hashed)
    for j in range(_POOL_SIZE, len(words)):
        k, word = _POOL_SIZE * j, np.asarray(words[j], dtype=np.uint32)[..., None]
        pool = _mix(pool, _hash(word, consts[k : k + 4], consts[k + 1 : k + 5]))
    return _hash(pool[..., :n], _OUTPUT[:n], _OUTPUT[1 : n + 1]).view(np.uint64)


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, path)`` into a single integer usable as a child seed.

    Used where an API accepts one seed but the caller owns a whole family of
    independent sub-tasks (cross-validation cells, study replications, sweep
    points).  Distinct paths give statistically independent children:
    ``SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)[0]``,
    or a uint64 array of them over uint32 arrays of path words.
    """
    words = _words(seed, _POOL_SIZE) + [word for p in path for word in _words(p)]
    state = _state(words, 2)[..., 0]
    return int(state) if state.ndim == 0 else state


def generator(seed: int, *path: int) -> np.random.Generator:
    """A fresh Philox generator for the stream addressed by ``(seed, path)``.

    It draws what ``Philox(SeedSequence(seed, spawn_key=path))`` draws.
    """
    words = _words(seed, _POOL_SIZE) + [word for p in path for word in _words(p)]
    # a uint64 array: numpy converts a list of Python ints through float64
    return np.random.Generator(np.random.Philox(key=_state(words, 4)))


# The last cell family's replicate keys, (cells, B, 2), and each cell seed's row.
_family = {"rows": {}, "keys": np.empty((0, 0, 2), dtype=np.uint64)}


def replicate_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, b)`` for ``b`` in ``lo..hi-1``; (hi-lo, 2) uint64.

    Row ``b - lo`` equals ``SeedSequence(seed, spawn_key=(b,)).generate_state(2,
    np.uint64)``.  A seed of the last :func:`_cell_family`, with ``hi`` within
    its B, is served from its keys as a read-only view (keys depend on the
    seed alone); else they are one :func:`_state` over the spawn words.  A
    spawn word ``b >= 2**32`` would take two words in ``SeedSequence``; it is refused.
    """
    lo, hi = _word(lo), _word(hi)
    if not 0 <= lo <= hi:
        raise ValueError(f"replicate range must satisfy 0 <= lo <= hi, got {lo}..{hi}")
    if hi > MAX_REPLICATES:
        raise ValueError(f"replicate index must be < 2**32, got hi={hi}")
    seed = _word(seed)
    row = _family["rows"].get(seed)
    if row is not None and hi <= _family["keys"].shape[1]:
        return _family["keys"][row, lo:hi]
    return _state(_words(seed, _POOL_SIZE) + [np.arange(lo, hi, dtype=np.uint32)], 4)


def _cell_family(seed: int, prefix: tuple, shape: tuple, B: int, lo: int = 0, hi: int | None = None):
    """Seeds and replicate keys of the cells ``derive_seed(seed, *prefix, *index)``.

    ``index`` runs over the cells ``lo..hi-1`` of ``shape`` in C order, by
    default all of them.  Returns the cell seeds, uint64 (cells,), and the
    memo that :func:`replicate_keys` serves, (cells, B, 2) uint64 read-only,
    ``keys[c] == replicate_keys(seeds[c], 0, B)``: one :func:`_state` of the
    seeds' words with the replicate index broadcast.  Every path word must
    be one ``SeedSequence`` word, < ``2**32``.
    """
    prefix = [_word(p) for p in prefix]
    if not all(0 <= p < 2**32 for p in prefix) or max(shape) > 2**32 or not 0 <= B <= MAX_REPLICATES:
        raise ValueError(f"path words must lie in 0..2**32-1 and B in 0..2**32, got {prefix}, {shape}, {B}")
    cells = np.arange(lo, math.prod(shape) if hi is None else hi)
    index = [i.astype(np.uint32) for i in np.unravel_index(cells, shape)]
    seeds = derive_seed(seed, *prefix, *index)
    words = [(seeds & _MASK32)[:, None], (seeds >> 32)[:, None], 0, 0]
    keys = _state(words + [np.arange(B, dtype=np.uint32)], 4)
    keys.setflags(write=False)
    _family["rows"] = dict(zip(seeds.tolist(), range(seeds.size)))
    _family["keys"] = keys
    return seeds, keys


def cell_families(seed: int, prefix: tuple, shape: tuple, B: int):
    """The seeds and replicate keys of the cells ``derive_seed(seed, *prefix, *index)``,
    ``index`` over ``shape`` in C order, one :func:`_cell_family` pass at a time.

    Each pass derives the next ``max(1, FAMILY_KEYS // B)`` cells as the
    iteration reaches them, so the keys in memory stay bounded however many
    cells ``shape`` holds.
    """
    size, step = math.prod(shape), max(1, FAMILY_KEYS // max(B, 1))
    for lo in range(0, size, step):
        yield _cell_family(seed, prefix, shape, B, lo, min(lo + step, size))


def cell_seeds(seed: int, prefix: tuple, shape: tuple, B: int):
    """The cell seeds of :func:`cell_families`, as ints; :func:`replicate_keys`
    serves the keys of the cell just yielded from the pass that holds it."""
    for seeds, _ in cell_families(seed, prefix, shape, B):
        yield from seeds.tolist()


# The one Philox generator that keyed_generator re-keys, and the state it
# writes, its four-word output buffer empty.  The key's words are Python
# ints: ``Philox.state`` reads them one at a time, and a numpy scalar per
# word was over half of a re-key's cost.
_philox = _philox_generator = None
_stream = {"counter": [0] * 4, "key": None}
_philox_state = {"bit_generator": "Philox", "state": _stream, "buffer": [0] * 4, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}


def keyed_generator(key: list) -> np.random.Generator:
    """The one Philox generator, reset to the start of the stream with Philox key ``key``.

    ``key`` is a row of :func:`replicate_keys` as a list of Python ints, so
    it draws exactly what ``generator(seed, b)`` draws.  Every call returns
    the same generator, built by the first call (at import it raised a
    ``simulate`` call's peak RSS by 0.1 MB), seeded only to skip an entropy read.
    """
    global _philox, _philox_generator
    if _philox is None:
        _philox = np.random.Philox(0)
        _philox_generator = np.random.Generator(_philox)
    _stream["key"] = key
    _philox.state = _philox_state
    return _philox_generator
