import numpy as np
import pytest
from numpy.testing import assert_allclose

from mubsig.quantum import (
    TOLERANCE,
    DensityOperator,
    Ket,
    born_probabilities,
    nonselective_measure,
    partial_trace,
    sample_outcome,
)


def random_ket(size, seed):
    rng = np.random.default_rng(seed)
    return Ket.normalized(rng.normal(size=size) + 1j * rng.normal(size=size))


def random_density(d1, d2, seed):
    """Random full-rank two-qudit density operator."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m), dims=(d1, d2))


def random_basis(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    return q


# ---------------------------------------------------------------------------
# Kets
# ---------------------------------------------------------------------------

def test_ket_requires_unit_norm():
    Ket(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0]))


def test_ket_normalized_and_zero_vector():
    k = Ket.normalized(np.array([3.0, 4.0]))
    assert_allclose(k.amplitudes, [0.6, 0.8])
    with pytest.raises(ValueError):
        Ket.normalized(np.zeros(4))


def test_basis_state():
    k = Ket.basis_state(2, 3)
    assert_allclose(k.amplitudes, [0, 0, 1])
    pair = Ket.basis_state(5, (3, 3))
    assert pair.dims == (3, 3)
    assert pair.amplitudes[5] == 1.0


def test_ket_amplitudes_read_only():
    k = Ket.basis_state(0, 2)
    with pytest.raises(ValueError):
        k.amplitudes[0] = 5.0


# ---------------------------------------------------------------------------
# Density operators
# ---------------------------------------------------------------------------

def test_density_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_from_ket_is_pure_projector():
    k = random_ket(3, 7)
    rho = DensityOperator.from_ket(k)
    assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)
    assert_allclose(np.trace(rho.matrix), 1.0)


def test_maximally_mixed():
    rho = DensityOperator.maximally_mixed((2, 2))
    assert rho.dims == (2, 2)
    assert_allclose(rho.matrix, np.eye(4) / 4)


def test_born_and_nonselective_reject_mismatched_basis_shape():
    single = DensityOperator.maximally_mixed(2)
    pair = DensityOperator.maximally_mixed((2, 2))
    for basis in (np.eye(3), np.eye(4), np.eye(2)[:, :1]):
        with pytest.raises(ValueError):
            born_probabilities(single, basis)
        with pytest.raises(ValueError):
            nonselective_measure(pair, 1, basis)
    with pytest.raises(ValueError):
        born_probabilities(pair, np.eye(2))


# ---------------------------------------------------------------------------
# Born rule and measurement channels against projector oracles.
# ---------------------------------------------------------------------------

def test_born_probabilities_match_projector_expectations():
    for d, seed in [(2, 3), (3, 4), (5, 5)]:
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        rho = DensityOperator(m / np.trace(m))
        basis = random_basis(d, seed + 10)
        probs = born_probabilities(rho, basis)
        for i in range(d):
            v = basis[:, i]
            assert abs(probs[i] - np.real(np.vdot(v, rho.matrix @ v))) < TOLERANCE
        assert abs(probs.sum() - 1.0) < TOLERANCE


def test_born_dimension_mismatch_rejected():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        born_probabilities(rho, random_basis(3, 0))


def test_nonselective_measure_matches_kron_projector_sum():
    """Channel output equals sum_m (P_m x I) rho (P_m x I) built by hand."""
    for d, seed in [(2, 11), (3, 12), (5, 13), (7, 14)]:
        rho = random_density(d, d, seed)
        basis = random_basis(d, seed + 1)
        eye = np.eye(d)
        for subsystem in (1, 2):
            got = nonselective_measure(rho, subsystem, basis)
            expected = np.zeros((d * d, d * d), dtype=complex)
            for m in range(d):
                v = basis[:, m]
                p = np.outer(v, v.conj())
                lifted = np.kron(p, eye) if subsystem == 1 else np.kron(eye, p)
                expected += lifted @ rho.matrix @ lifted
            assert_allclose(got.matrix, expected, atol=1e-12)


def test_nonselective_measure_keeps_diagonal_input():
    rho = DensityOperator(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex),
                          dims=(2, 2))
    basis = np.eye(2, dtype=complex)
    got = nonselective_measure(rho, 2, basis)
    assert_allclose(got.matrix, rho.matrix, atol=1e-12)


def test_nonselective_measure_requires_pair_state():
    rho = DensityOperator.maximally_mixed(3)
    with pytest.raises(ValueError):
        nonselective_measure(rho, 1, random_basis(3, 0))


def test_partial_trace_matches_loop_oracle():
    for d, seed in [(2, 21), (3, 22)]:
        rho = random_density(d, d, seed)
        blocks = rho.matrix.reshape(d, d, d, d)
        keep1 = np.zeros((d, d), dtype=complex)
        keep2 = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    keep1[i, j] += blocks[i, k, j, k]
                    keep2[i, j] += blocks[k, i, k, j]
        assert_allclose(partial_trace(rho, keep=1).matrix, keep1, atol=1e-12)
        assert_allclose(partial_trace(rho, keep=2).matrix, keep2, atol=1e-12)


def test_partial_trace_of_product_state():
    a = random_ket(3, 31)
    b = random_ket(3, 32)
    joint = DensityOperator.from_ket(Ket(np.kron(a.amplitudes, b.amplitudes),
                                         dims=(3, 3)))
    assert_allclose(partial_trace(joint, keep=1).matrix,
                    DensityOperator.from_ket(a).matrix, atol=1e-12)
    assert_allclose(partial_trace(joint, keep=2).matrix,
                    DensityOperator.from_ket(b).matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_outcome_degenerate_distribution():
    rng = np.random.default_rng(0)
    probs = np.array([0.0, 1.0, 0.0])
    draws = sample_outcome(probs, rng, size=100)
    assert draws.shape == (100,)
    assert np.all(draws == 1)


def test_sample_outcome_scalar_mode():
    rng = np.random.default_rng(0)
    value = sample_outcome(np.array([0.5, 0.5]), rng)
    assert value in (0, 1)


def test_sample_outcome_frequencies_within_5_sigma():
    rng = np.random.default_rng(42)
    probs = np.array([0.5, 0.25, 0.25])
    n = 100_000
    draws = sample_outcome(probs, rng, size=n)
    for i, p in enumerate(probs):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(np.count_nonzero(draws == i) - n * p) < 5 * sigma


def test_sample_outcome_is_reproducible():
    a = sample_outcome(np.array([0.3, 0.7]), np.random.default_rng(5), size=50)
    b = sample_outcome(np.array([0.3, 0.7]), np.random.default_rng(5), size=50)
    assert np.array_equal(a, b)
