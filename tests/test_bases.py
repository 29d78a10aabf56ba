import numpy as np
import pytest
from numpy.testing import assert_allclose

from mubsig.bases import (
    BasisId,
    Family,
    _pair_amplitudes,
    basis_alphabet,
    hadamard_root,
    measurement_basis,
    omega_power,
    pair_outcome_labels,
)
from mubsig.protocol import pair_outcome_probs
from dense import entangled_basis

SQRT2 = np.sqrt(2.0)
EXACT_PRIMES = (2, 3, 5, 7, 11, 13)


def scalar_amplitude(d, exponent):
    """omega^exponent / sqrt(d) for one entry, rounded as numpy divides."""
    return np.divide(omega_power(d, exponent), np.sqrt(d))


def fourier_matrix(d):
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * m * n / d) / np.sqrt(d)


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

def test_basis_id_text_round_trip():
    """Every basis of both families has a label of its own, so a label read
    back against the alphabet names exactly one basis."""
    assert BasisId(Family.PLAIN, None).text() == "comp"
    assert BasisId(Family.PLAIN, 1).text() == "q1"
    assert BasisId(Family.HAT, 1).text() == "hat-q1"
    for d in (2, 3, 5):
        alphabet = basis_alphabet(d, (Family.PLAIN, Family.HAT))
        assert len({b.text() for b in alphabet}) == len(alphabet) == 2 * (d + 1)


def test_basis_id_validation():
    with pytest.raises(ValueError, match="quad label must be nonnegative, got -1"):
        BasisId(Family.PLAIN, -1)
    with pytest.raises(TypeError, match="quad label must be an int or None"):
        BasisId(Family.PLAIN, 1.5)
    assert BasisId(Family.PLAIN, None).quad is None
    assert BasisId(Family.PLAIN, 0).quad is not None


def test_basis_alphabet_order_and_count():
    plain = basis_alphabet(3)
    assert len(plain) == 4
    assert plain[0].quad is None
    assert [b.quad for b in plain[1:]] == [0, 1, 2]
    both = basis_alphabet(2, (Family.PLAIN, Family.HAT))
    assert len(both) == 6
    assert [b.family for b in both] == [Family.PLAIN] * 3 + [Family.HAT] * 3


# ---------------------------------------------------------------------------
# Roots of unity: exact integer exponents, special period-4 case at d=2.
# ---------------------------------------------------------------------------

def test_omega_d2_has_period_four():
    assert omega_power(2, 1) == 1j
    assert omega_power(2, 2) == -1
    assert omega_power(2, 3) == -1j
    assert omega_power(2, 4) == 1
    # reducing mod d instead of mod 4 would alias these two
    assert omega_power(2, 1) != omega_power(2, 3)


def test_omega_odd_prime():
    for d in (3, 5, 7):
        assert_allclose(omega_power(d, 1), np.exp(2j * np.pi / d), atol=1e-15)
        assert_allclose(omega_power(d, d), 1.0, atol=1e-12)
        total = sum(omega_power(d, k) for k in range(d))
        assert abs(total) < 1e-12


def test_omega_power_handles_negative_exponents():
    assert omega_power(2, -1) == -1j
    assert_allclose(omega_power(5, -2) * omega_power(5, 2), 1.0, atol=1e-14)


def test_omega_power_ignores_the_integer_type():
    """Python and numpy integer exponents read the same table entry."""
    for d in (2, 3, 5, 7, 11, 13, 31):
        for k in range(-d, d):
            python, numpy = omega_power(d, k), omega_power(d, np.int64(k))
            assert type(python) is type(numpy) is complex
            assert python == numpy, (d, k)


# ---------------------------------------------------------------------------
# Single-qudit bases: column m of measurement_basis is the m-th ket.
# ---------------------------------------------------------------------------

def test_bases_are_frozen_cached_matrices():
    for b in basis_alphabet(3, (Family.PLAIN, Family.HAT)):
        m = measurement_basis(3, b)
        assert type(m) is np.ndarray and m.shape == (3, 3)
        assert measurement_basis(3, b) is m
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


# A wrongly typed call, and a well-typed call whose cache entry it could read.
_WRONGLY_TYPED = {
    "basis-id-family-str": (lambda: measurement_basis(7, BasisId("hat", 1)),
                            lambda: measurement_basis(7, BasisId(Family.PLAIN, 1))),
    "basis-str": (lambda: measurement_basis(7, "q1"),
                  lambda: measurement_basis(7, BasisId(Family.PLAIN, 1))),
    "pair-family-str": (lambda: pair_outcome_probs(7, "hat", BasisId(Family.HAT, 1)),
                        lambda: pair_outcome_probs(7, Family.HAT, BasisId(Family.HAT, 1))),
}


@pytest.mark.parametrize("name", _WRONGLY_TYPED)
def test_wrongly_typed_arguments_raise_type_error_cold_and_warm(name, fresh_caches):
    """A family given as its name, or a basis given as its label, never
    yields a basis or a pair distribution: each raises TypeError before
    and after the well-typed call it resembles has filled the caches."""
    bad, good = _WRONGLY_TYPED[name]
    with pytest.raises(TypeError):
        bad()
    good()
    with pytest.raises(TypeError):
        bad()


def test_mub_ket_d2_frozen_amplitudes():
    """The exact d=2 kets: quadratic phases land on {1, i, -1, -i}."""
    q0 = measurement_basis(2, BasisId(Family.PLAIN, 0))
    q1 = measurement_basis(2, BasisId(Family.PLAIN, 1))
    assert_allclose(q0[:, 0], np.array([1, 1]) / SQRT2, atol=1e-15)
    assert_allclose(q1[:, 0], np.array([1, 1j]) / SQRT2, atol=1e-15)
    assert_allclose(q0[:, 1], np.array([1, -1]) / SQRT2, atol=1e-15)
    assert_allclose(q1[:, 1], np.array([1, -1j]) / SQRT2, atol=1e-15)


def test_mub_ket_computational():
    for d in (2, 3):
        comp = measurement_basis(d, BasisId(Family.PLAIN, None))
        for m in range(d):
            expected = np.zeros(d)
            expected[m] = 1.0
            assert_allclose(comp[:, m], expected)


def test_mub_ket_structure_is_exact():
    """Entry [n, m] of every quadratic basis is omega^(b n^2 - 2 n m)/sqrt(d),
    bit for bit."""
    for d in EXACT_PRIMES:
        for b in range(d):
            m = measurement_basis(d, BasisId(Family.PLAIN, b))
            for n, k in np.ndindex(d, d):
                assert m[n, k] == scalar_amplitude(d, b * n * n - 2 * n * k), (d, b, n, k)


def test_mub_ket_label_range():
    for family in (Family.PLAIN, Family.HAT):
        with pytest.raises(ValueError):
            measurement_basis(3, BasisId(family, 3))
        measurement_basis(3, BasisId(family, 2))


def test_measurement_bases_orthonormal():
    for d in (2, 3, 5):
        for b in basis_alphabet(d, (Family.PLAIN, Family.HAT)):
            m = measurement_basis(d, b)
            assert_allclose(m.conj().T @ m, np.eye(d), atol=1e-10)


def test_plain_unbiasedness_exhaustive():
    """|<m;b|m';b'>|^2 = 1/d for every distinct plain pair."""
    for d in (2, 3, 5):
        ids = basis_alphabet(d)
        mats = {b: measurement_basis(d, b) for b in ids}
        for i, b1 in enumerate(ids):
            for b2 in ids[i + 1:]:
                overlaps = np.abs(mats[b1].conj().T @ mats[b2]) ** 2
                assert_allclose(overlaps, 1.0 / d, atol=1e-10)


# ---------------------------------------------------------------------------
# The square root of the Fourier matrix and the hat family.
# ---------------------------------------------------------------------------

PRIMES_TO_97 = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
# sqrt(lam) for lam = 1, -1, i, -i on the principal branch
PRINCIPAL_ROOTS = np.array([1, 1j, np.exp(0.25j * np.pi), np.exp(-0.25j * np.pi)])


def test_hadamard_root_squares_to_fourier():
    """h @ h = F, h is unitary on the principal branch, and h equals its
    transpose in every bit: it is a sum of scalar multiples of I, F, the
    parity and conj(F), each exactly symmetric, so it is the hat
    transport as it stands."""
    for d in (*PRIMES_TO_97, 251):
        h = hadamard_root(d)
        assert (h == h.T).all(), d
        assert_allclose(h @ h, fourier_matrix(d), atol=1e-12)
        assert_allclose(h @ h.conj().T, np.eye(d), atol=1e-12)
        eigenvalues = np.linalg.eigvals(h)
        branch_gap = np.abs(eigenvalues[:, None] - PRINCIPAL_ROOTS).min(axis=1)
        assert branch_gap.max() < 1e-12, d


def test_hadamard_root_cached_and_frozen():
    h = hadamard_root(3)
    assert hadamard_root(3) is h
    with pytest.raises(ValueError):
        h[0, 0] = 0.0


def test_hat_kets_are_root_rows():
    for d in (2, 3):
        h = hadamard_root(d)
        comp = measurement_basis(d, BasisId(Family.HAT, None))
        q0 = measurement_basis(d, BasisId(Family.HAT, 0))
        plain_q0 = measurement_basis(d, BasisId(Family.PLAIN, 0))
        for m in range(d):
            assert_allclose(comp[:, m], h[m, :], atol=1e-15)
            assert_allclose(q0[:, m], h.T @ plain_q0[:, m], atol=1e-15)


def test_hadamard_root_columns_are_hat_kets():
    h = hadamard_root(3)
    assert (h == h.T).all()
    assert_allclose(h, measurement_basis(3, BasisId(Family.HAT, None)), atol=1e-15)


def test_hat_family_differs_from_computational_but_is_not_unbiased():
    """The transported family must be distinct from the plain one yet
    share no unbiasedness with it: the margins hadamard_root refuses to
    go below hold at every prime up to 97 and at 251."""
    for d in (*PRIMES_TO_97, 251):
        h = hadamard_root(d)
        overlaps = np.abs(h) ** 2
        assert np.abs(overlaps - 1.0 / d).max() > 1e-3, d
        assert overlaps.max() < 1.0 - 1e-6, d   # no hat ket equals a plain ket
        separation = max(np.linalg.norm(h[:, [m]] - np.eye(d), axis=0).min()
                         for m in range(d))
        assert separation > 0.1, d


def test_hat_unbiasedness_within_family():
    for d in (2, 3, 5):
        ids = basis_alphabet(d, (Family.HAT,))
        mats = {b: measurement_basis(d, b) for b in ids}
        for i, b1 in enumerate(ids):
            for b2 in ids[i + 1:]:
                overlaps = np.abs(mats[b1].conj().T @ mats[b2]) ** 2
                assert_allclose(overlaps, 1.0 / d, atol=1e-10)


# ---------------------------------------------------------------------------
# Entangled pair states: the dense reference basis of tests/dense.py, which
# the package's structured reading, _pair_amplitudes, is checked against.
# ---------------------------------------------------------------------------

def ket_matrix(d, c, r, s=0, family=Family.PLAIN):
    """|c,r;s> as a d x d amplitude matrix, read off its pair-basis column."""
    return entangled_basis(d, s, family)[:, c * d + r].reshape(d, d)


def test_entangled_ket_d2_is_bell_state():
    amps = entangled_basis(2, 0)[:, 0]
    assert_allclose(amps, np.array([1, 0, 0, 1]) / SQRT2, atol=1e-15)


def test_entangled_ket_structure():
    """Amplitude of |n, c-n> in |c,r;s> is w^(s n^2 - 2 r n)/sqrt(d), bit for
    bit; all else is exactly 0."""
    for d in EXACT_PRIMES:
        for s in range(d):
            for c, r in pair_outcome_labels(d):
                psi = ket_matrix(d, c, r, s)
                for n in range(d):
                    expected = scalar_amplitude(d, s * n * n - 2 * r * n)
                    assert psi[n, (c - n) % d] == expected, (d, c, r, s, n)
                assert np.count_nonzero(psi) == d


def test_entangled_ket_label_range():
    with pytest.raises(ValueError):
        entangled_basis(3, 3)
    with pytest.raises(ValueError):
        entangled_basis(3, -1)


def test_entangled_basis_orthonormal_every_s():
    for d in (2, 3, 5):
        for s in range(d):
            m = entangled_basis(d, s)
            assert_allclose(m.conj().T @ m, np.eye(d * d), atol=1e-10)


def test_entangled_basis_projector_completeness():
    for d in (2, 3):
        m = entangled_basis(d, 0)
        total = sum(np.outer(m[:, i], m[:, i].conj()) for i in range(d * d))
        assert_allclose(total, np.eye(d * d), atol=1e-10)


def test_hat_entangled_ket_is_transported_plain():
    for d in (2, 3):
        u = hadamard_root(d)
        for (c, r) in [(0, 0), (1, 0), (0, 1)]:
            expected = np.kron(u, u) @ ket_matrix(d, c, r).ravel()
            assert_allclose(ket_matrix(d, c, r, 0, Family.HAT).ravel(), expected,
                            atol=1e-12)


def test_pair_amplitudes_read_the_dense_pair_basis():
    """The amplitudes read off the pair basis's structure are those of the
    dense basis, <e_k|V> = sum_i conj(E[i, k]) V_i, for both families and
    any stack of pair matrices."""
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 7):
        pairs = rng.normal(size=(3, 2, d, d)) + 1j * rng.normal(size=(3, 2, d, d))
        for family in (Family.PLAIN, Family.HAT):
            dense = pairs.reshape(3, 2, d * d) @ entangled_basis(d, 0, family).conj()
            assert_allclose(_pair_amplitudes(d, family, pairs), dense, rtol=0, atol=1e-13,
                            err_msg=f"d={d} {family}")


def test_pair_outcome_labels_row_major():
    assert pair_outcome_labels(2) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_reduced_states_maximally_mixed():
    """Either half of any pair ket carries no information at all."""
    from dense import density, partial_trace

    for d in (2, 3):
        for (c, r, s) in [(0, 0, 0), (1, 0, 0), (0, 1, 1)]:
            rho = density(ket_matrix(d, c, r, s))
            for keep in (1, 2):
                assert_allclose(partial_trace(rho, keep=keep), np.eye(d) / d, atol=1e-10)
