"""Deterministic derivation of independent random streams.

A session is reproduced from a single integer seed.  Work inside a
session is split into fixed-size blocks, and each block draws from its
own stream derived purely from (seed, block index).  Because the
mapping is pure and blocks never share a stream, the degree of
parallelism cannot change any sampled value.
"""

from __future__ import annotations

import numpy as np


def derive_round_stream(seed: int, index: int) -> np.random.Generator:
    """Pure mapping (seed, index) -> an independent random stream."""
    for name, value in (("seed", seed), ("index", index)):
        if isinstance(value, bool):   # True would pass for the int 1
            raise TypeError(f"stream {name} must be an int, not a bool")
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))
