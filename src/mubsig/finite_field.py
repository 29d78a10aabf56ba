"""Prime dimensions, and the owner of every cache keyed on one.

Every label that parametrises a basis or a two-qudit state (the residues
c, r, s, b and the measurement outcomes c', r') lives in the field of
integers modulo a prime d.  This module decides which d are accepted;
the field arithmetic itself is the int64 residue arithmetic of
:func:`mubsig.protocol.decode`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

# The largest dimension accepted.  The dual-family outcome table has 4d + 6
# rows, and ``protocol._InverseCdf`` keys row r and draw k / 2^53 as the
# int64 r * 2^53 + k, which stays below 2^63 only for 4d + 6 <= 1024.  Its
# guide table is capped at 2^20 buckets, so near this limit more buckets
# hold two or more cell edges, and more draws fall back to a binary search,
# with the same result.
MAX_DIM = 251


def _is_prime(n: int) -> bool:
    """Deterministic primality check by trial division (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeDim:
    """A prime dimension d <= MAX_DIM.  Construction fails loudly otherwise."""

    d: int

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, int):
            raise TypeError(f"dimension must be an int, got {type(self.d).__name__}")
        if self.d > MAX_DIM:
            raise ValueError(f"dimension {self.d} exceeds the largest supported, {MAX_DIM}")
        if not _is_prime(self.d):
            raise ValueError(f"dimension must be prime, got {self.d}")


_CACHES: list = []


def per_dim_cache(fn: Callable) -> Callable:
    """Cache ``fn(d, *args)`` for the process in a typed cache that lets
    :class:`PrimeDim` check d on every miss.  A hit needs a key whose
    exact types and values a miss already accepted, so it skips the check.
    Code that patches what a cached function reads calls
    :func:`_clear_caches` before and after, or later callers see the patch.
    """
    @functools.lru_cache(maxsize=None, typed=True)
    @functools.wraps(fn)
    def checked(d: int, *args):
        PrimeDim(d)
        return fn(d, *args)

    _CACHES.append(checked)
    return checked


def _clear_caches() -> None:
    """Empty every cache made by :func:`per_dim_cache`."""
    for cached in _CACHES:
        cached.cache_clear()
