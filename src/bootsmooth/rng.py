"""Deterministic random-stream derivation.

Every randomized routine in the package derives its stream from a master seed
plus an integer path, using a counter-based bit generator (Philox).  Streams
are therefore fully determined by ``(seed, path)`` and independent of call
order and chunking, which is what makes any one cell, replicate or
replication reproducible on its own.
"""

from __future__ import annotations

import numpy as np

# numpy loads its random module lazily; every command draws, so load it with
# the package rather than inside the first draw.
import numpy.random


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
