"""Deterministic random streams built on the counter-based Philox generator.

Every stochastic routine draws from a stream keyed by (seed, path), where
path is a short tuple of small integers (purpose tag, trial index, restart
index, ...).  Two consequences:

* the same (seed, path) always reproduces the same draws, bit for bit,
  in any process and with any number of worker threads;
* distinct paths give statistically independent streams, so trials can be
  generated in parallel in any order.
"""

from __future__ import annotations

import numpy as np

_U64 = 1 << 64


def _sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(seed) % _U64, spawn_key=tuple(int(p) for p in path))


def gaussian_stream(seed: int, path: tuple[int, ...] = ()) -> np.random.Generator:
    """Fresh Generator keyed by (seed, *path)."""
    return np.random.Generator(np.random.Philox(_sequence(seed, path)))


def derive_seed(seed: int, path: tuple[int, ...]) -> int:
    """Fold (seed, *path) into a single 64-bit integer usable as a child seed."""
    return int(_sequence(seed, path).generate_state(1, np.uint64)[0])
