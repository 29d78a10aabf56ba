"""Prime dimensions.

Every label that parametrises a basis or a two-qudit state (the residues
c, r, s, b and the measurement outcomes c', r') lives in the field of
integers modulo a prime d.  This module decides which d are accepted;
the field arithmetic itself is the int64 residue arithmetic of
:func:`mubsig.protocol.decode`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# The largest dimension accepted.  The dual-family outcome table has 4d + 6
# rows, and ``protocol._InverseCdf`` keys row r and draw k / 2^53 as the
# int64 r * 2^53 + k, which stays below 2^63 only for 4d + 6 <= 1024.  Its
# guide table is capped at 2^20 buckets, so near this limit more buckets
# hold two or more cell edges, and more draws fall back to a binary search,
# with the same result.
MAX_DIM = 251


def is_prime(n: int) -> bool:
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
        if not is_prime(self.d):
            raise ValueError(f"dimension must be prime, got {self.d}")


@functools.lru_cache(maxsize=None, typed=True)
def _prime_dim(d: int) -> PrimeDim:
    """Cached :class:`PrimeDim` lookup; raises for non-primes like the constructor.

    The cache is typed: 7.0 and True are keys of their own, not the
    entries of 7 and 1, so they raise ``TypeError`` every time.  Public
    functions run this check before they read any cache keyed on d; those
    that are cached themselves are typed too.
    """
    return PrimeDim(d)
