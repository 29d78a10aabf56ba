"""Exact arithmetic on residues modulo a prime dimension.

Every label that parametrises a basis or a two-qudit state (the residues
c, r, s, b and the measurement outcomes c', r') lives in the field of
integers modulo a prime d.  Decoding needs exact subtraction and division
in that field, so these are plain Python integers end to end; nothing
here touches floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# The largest dimension accepted.  The dual-family outcome table has 4d + 6
# rows, and ``protocol._InverseCdf`` keys row r and draw k / 2^53 as the
# int64 r * 2^53 + k, which stays below 2^63 only for 4d + 6 <= 1024.  Its
# guide table is capped at 2^20 entries, so near this limit more draws fall
# back to a binary search, with the same result.
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

    def element(self, value: int) -> FieldElement:
        """Reduce an arbitrary integer into the field."""
        return FieldElement(value % self.d, self)

    def elements(self) -> tuple[FieldElement, ...]:
        """All residues 0..d-1, in order."""
        return tuple(FieldElement(v, self) for v in range(self.d))


@functools.lru_cache(maxsize=None)
def _prime_dim(d: int) -> PrimeDim:
    """Cached :class:`PrimeDim` lookup; raises for non-primes like the constructor."""
    return PrimeDim(d)


@dataclass(frozen=True)
class FieldElement:
    """A residue modulo a prime, with exact field arithmetic."""

    value: int
    dim: PrimeDim

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.dim.d:
            raise ValueError(f"residue {self.value} outside [0, {self.dim.d})")

    def _require_same_dim(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.dim != other.dim:
            raise ValueError(
                f"mixed dimensions: {self.dim.d} and {other.dim.d}"
            )

    def __add__(self, other: FieldElement) -> FieldElement:
        self._require_same_dim(other)
        return FieldElement((self.value + other.value) % self.dim.d, self.dim)

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._require_same_dim(other)
        return FieldElement((self.value - other.value) % self.dim.d, self.dim)

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._require_same_dim(other)
        return FieldElement((self.value * other.value) % self.dim.d, self.dim)

    def __neg__(self) -> FieldElement:
        return FieldElement((-self.value) % self.dim.d, self.dim)

    def inverse(self) -> FieldElement:
        """Multiplicative inverse; exact, via extended Euclid under the hood."""
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse modulo {self.dim.d}")
        return FieldElement(pow(self.value, -1, self.dim.d), self.dim)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._require_same_dim(other)
        return self * other.inverse()

    def __int__(self) -> int:
        return self.value
