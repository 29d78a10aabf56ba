import pytest

from mubsig.finite_field import MAX_DIM, FieldElement, PrimeDim, is_prime

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


def test_element_reduces_arbitrary_integers():
    dim = PrimeDim(5)
    assert int(dim.element(5)) == 0
    assert int(dim.element(-1)) == 4
    assert int(dim.element(17)) == 2


def test_elements_enumeration():
    dim = PrimeDim(3)
    values = [int(x) for x in dim.elements()]
    assert values == [0, 1, 2]


# ---------------------------------------------------------------------------
# Arithmetic against the plain modular oracle.
# ---------------------------------------------------------------------------

def test_add_sub_mul_exhaustive():
    for d in PRIMES:
        dim = PrimeDim(d)
        for a in range(d):
            for b in range(d):
                x, y = dim.element(a), dim.element(b)
                assert int(x + y) == (a + b) % d
                assert int(x - y) == (a - b) % d
                assert int(x * y) == (a * b) % d
    assert int(-PrimeDim(5).element(2)) == 3


def test_inverse_matches_pow_oracle():
    for d in PRIMES:
        dim = PrimeDim(d)
        for a in range(1, d):
            inv = dim.element(a).inverse()
            assert int(inv) == pow(a, -1, d)
            assert int(dim.element(a) * inv) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeDim(7).element(0).inverse()


def test_division():
    dim = PrimeDim(7)
    for a in range(7):
        for b in range(1, 7):
            q = dim.element(a) / dim.element(b)
            assert int(q * dim.element(b)) == a


def test_mixed_dimension_operations_rejected():
    x = PrimeDim(3).element(1)
    y = PrimeDim(5).element(1)
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        _ = x * y


def test_field_element_value_range_checked():
    with pytest.raises(ValueError):
        FieldElement(3, PrimeDim(3))
    with pytest.raises(ValueError):
        FieldElement(-1, PrimeDim(3))


def test_field_element_equality_and_hash():
    dim = PrimeDim(3)
    assert dim.element(2) == dim.element(2)
    assert dim.element(2) != dim.element(1)
    assert len({dim.element(0), dim.element(0), dim.element(1)}) == 2
