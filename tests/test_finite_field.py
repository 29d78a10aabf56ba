import numpy as np
import pytest

from mubsig.finite_field import MAX_DIM, PrimeDim, is_prime
from mubsig.protocol import _inverses

PRIMES = [2, 3, 5, 7, 11]


def test_is_prime_small_values():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in known)


def test_prime_dim_rejects_composites_and_units():
    for bad in [0, 1, 4, 6, 9, 10, -5]:
        with pytest.raises(ValueError):
            PrimeDim(bad)


def test_prime_dim_refuses_dimensions_above_max_dim():
    """251 is the largest prime whose dual-family table (4d + 6 rows) keeps
    the int64 lookup keys row * 2^53 + k below 2^63; larger d is refused
    before the primality test runs."""
    assert MAX_DIM == 251 and is_prime(MAX_DIM)
    assert (4 * MAX_DIM + 6) * 2 ** 53 <= 2 ** 63 < (4 * 257 + 6) * 2 ** 53
    assert PrimeDim(251).d == 251
    for bad in (257, 1_000_000_000_000_000_003):
        with pytest.raises(ValueError, match="largest supported"):
            PrimeDim(bad)


def test_prime_dim_rejects_non_integers():
    for bad in [2.0, "3", None]:
        with pytest.raises(TypeError):
            PrimeDim(bad)


def test_inverse_matches_pow_oracle():
    """The inverse table decode divides with, against Python's pow."""
    for d in PRIMES:
        inverses = _inverses(d)
        assert inverses.dtype == np.int64 and inverses.shape == (d,)
        for a in range(1, d):
            assert inverses[a] == pow(a, -1, d)
            assert a * inverses[a] % d == 1
