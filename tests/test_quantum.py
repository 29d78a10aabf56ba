"""The dense reference route of ``dense`` against projector and loop
oracles, and outcome sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mubsig.quantum import TOLERANCE, _clean_probabilities
from dense import born_probabilities, density, nonselective_measure, partial_trace, sample_outcome


def random_ket(size, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def random_density(d1, d2, seed):
    """Random full-rank two-qudit density operator."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_basis(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    return q


def test_density_from_ket_is_pure_projector():
    rho = density(random_ket(3, 7))
    assert_allclose(rho @ rho, rho, atol=1e-12)
    assert_allclose(np.trace(rho), 1.0)
    assert_allclose(rho, rho.conj().T, atol=0)


# ---------------------------------------------------------------------------
# Born rule and measurement channels against projector oracles.
# ---------------------------------------------------------------------------

def test_born_probabilities_match_projector_expectations():
    for d, seed in [(2, 3), (3, 4), (5, 5)]:
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        rho = m / np.trace(m)
        basis = random_basis(d, seed + 10)
        probs = born_probabilities(rho, basis)
        for i in range(d):
            v = basis[:, i]
            assert abs(probs[i] - np.real(np.vdot(v, rho @ v))) < TOLERANCE
        assert abs(probs.sum() - 1.0) < TOLERANCE


def test_born_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        born_probabilities(np.eye(2) / 2, random_basis(3, 0))


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
                expected += lifted @ rho @ lifted
            assert_allclose(got, expected, atol=1e-12)


def test_nonselective_measure_keeps_diagonal_input():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    basis = np.eye(2, dtype=complex)
    got = nonselective_measure(rho, 2, basis)
    assert_allclose(got, rho, atol=1e-12)


def test_nonselective_measure_requires_pair_state():
    with pytest.raises(ValueError):
        nonselective_measure(np.eye(3) / 3, 1, random_basis(3, 0))


def test_partial_trace_matches_loop_oracle():
    for d, seed in [(2, 21), (3, 22)]:
        rho = random_density(d, d, seed)
        blocks = rho.reshape(d, d, d, d)
        keep1 = np.zeros((d, d), dtype=complex)
        keep2 = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    keep1[i, j] += blocks[i, k, j, k]
                    keep2[i, j] += blocks[k, i, k, j]
        assert_allclose(partial_trace(rho, keep=1), keep1, atol=1e-12)
        assert_allclose(partial_trace(rho, keep=2), keep2, atol=1e-12)


def test_partial_trace_of_product_state():
    a = random_ket(3, 31)
    b = random_ket(3, 32)
    joint = density(np.kron(a, b))
    assert_allclose(partial_trace(joint, keep=1), density(a), atol=1e-12)
    assert_allclose(partial_trace(joint, keep=2), density(b), atol=1e-12)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("probs, message", [
    ([0.5, 0.5 + 2e-10, -2e-10], "probability -2e-10 below -tolerance; upstream state"),
    ([[0.5, 0.5], [0.5, 0.4]], "probabilities sum to 0.9, expected 1"),
], ids=["cell-below-tolerance", "row-sum-off-one"])
def test_corrupt_probabilities_are_refused_before_any_draw(probs, message):
    """A cell below -TOLERANCE, or a distribution whose sum is off 1 by more
    than it, is a corrupt upstream state, not round-off."""
    with pytest.raises(ValueError, match=message):
        _clean_probabilities(np.array(probs))


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
