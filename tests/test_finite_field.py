import inspect
from pathlib import Path

import numpy as np
import pytest

from mubsig import bases, finite_field, oracle, protocol
from mubsig.bases import BasisId, Family
from mubsig.finite_field import MAX_DIM, PrimeDim, is_prime
from mubsig.harness import analytic_outcome_distribution, dual_family_detection_probability
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


# Public functions that read a cache keyed on d, each called at dimension d.
_CACHED_CALLS = {
    "basis_alphabet": lambda d: bases.basis_alphabet(d, (Family.PLAIN, Family.HAT)),
    "omega_power": lambda d: bases.omega_power(d, 1),
    "measurement_basis": lambda d: bases.measurement_basis(d, BasisId(Family.PLAIN, 1)),
    "hadamard_root": bases.hadamard_root,
    "hat_unitary": bases.hat_unitary,
    "pair_outcome_labels": bases.pair_outcome_labels,
    "decode": lambda d: protocol.decode(d, (0, 0, 0), (1, 2)),
    "pair_outcome_probs": lambda d: protocol.pair_outcome_probs(d, Family.PLAIN,
                                                                BasisId(Family.PLAIN, 1)),
    "analytic_outcome_distribution": lambda d: analytic_outcome_distribution(
        d, BasisId(Family.HAT, 1)),
    "dual_family_detection_probability": dual_family_detection_probability,
    "run_round_original": lambda d: oracle.run_round_original(
        d, BasisId(Family.PLAIN, 1), np.random.default_rng(0), eve=True),
}


def _type_error(call, d) -> str:
    with pytest.raises(TypeError) as info:
        call(d)
    return str(info.value)


@pytest.mark.parametrize("name", _CACHED_CALLS)
def test_cached_functions_refuse_a_float_or_bool_dimension_cold_and_warm(name, fresh_caches):
    """7.0 == 7 and True == 1, so an untyped cache would hand the entry of 7
    to 7.0.  Each call raises the same TypeError before and after the
    int call has filled its caches."""
    call = _CACHED_CALLS[name]
    cold = [_type_error(call, bad) for bad in (7.0, True)]
    assert all(text.startswith("dimension must be an int") for text in cold), cold
    call(7)
    assert [_type_error(call, bad) for bad in (7.0, True)] == cold


def test_a_warm_call_does_not_check_the_dimension_again(monkeypatch, fresh_caches):
    """The typed cache holds only keys that :class:`PrimeDim` accepted, so
    a hit constructs none: only a miss checks d."""
    built = []

    class Counted(PrimeDim):
        def __post_init__(self) -> None:
            built.append(self.d)
            super().__post_init__()

    monkeypatch.setattr(finite_field, "PrimeDim", Counted)
    for call in _CACHED_CALLS.values():
        call(7)
    assert 7 in built   # the cold calls checked d
    built.clear()
    for call in _CACHED_CALLS.values():
        call(7)
    assert built == []


def test_lru_cache_is_used_only_by_the_cache_owner():
    """Every cache keyed on d goes through ``finite_field.per_dim_cache``,
    which checks d on every miss and which ``_clear_caches`` empties as a
    whole."""
    src = Path(finite_field.__file__).parent
    hits = {p.name: p.read_text().count("lru_cache") for p in sorted(src.glob("*.py"))}
    owner = inspect.getsource(finite_field.per_dim_cache).count("lru_cache")
    assert owner and {name: n for name, n in hits.items() if n} == {"finite_field.py": owner}
