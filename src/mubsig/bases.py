"""Construction of the measurement bases and entangled pair bases.

Two families are built for each prime dimension d:

* the plain family: the computational basis plus d quadratic-phase bases
  |m;b> = (1/sqrt d) sum_n |n> w^(b n^2 - 2 n m), all d+1 mutually
  unbiased, where w = i for d = 2 and w = exp(2 pi i / d) otherwise;
* the hat family: the same construction transported through the basis
  |m-hat> = sum_n |n> h[m, n], where h is the principal square root of
  the d-dimensional Fourier matrix.  h is symmetric, so it is also the
  unitary that sends |m> to |m-hat>: the hat transport is h itself.

The phase exponent b n^2 - 2 n m is an exact integer and is reduced only
modulo the true period of w (4 when d = 2, else d); reducing mod d first
would silently corrupt the d = 2 bases.

Entangled pair states |c,r;s> = (1/sqrt d) sum_n |n>|c-n> w^(s n^2 - 2 r n)
form, for fixed s, an orthonormal basis of the pair space: |c,r;s> is
the r-th ket of the quadratic basis q_s laid along the anti-diagonal
n' = c - n.  The protocols measure in the s = 0 basis; its hat variant
transports it through h on both halves.
:func:`_pair_amplitudes` reads amplitudes in it off that structure, so
no d^2 x d^2 basis is ever made.

Every single-qudit basis is built whole, as a read-only matrix whose
column k is its k-th ket, from one cached table of the powers of w.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .finite_field import per_dim_cache
from .quantum import TOLERANCE, _frozen


class Family(enum.Enum):
    """Which of the two basis families a label refers to."""

    PLAIN = "plain"
    HAT = "hat"


@dataclass(frozen=True)
class BasisId:
    """Family plus label of one measurement basis.

    ``quad`` is None for the computational-type basis of the family and
    the quadratic label b in 0..d-1 otherwise.
    """

    family: Family
    quad: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise TypeError(f"family must be a Family, got {type(self.family).__name__}")
        if self.quad is not None and (isinstance(self.quad, bool)
                                      or not isinstance(self.quad, int)):
            raise TypeError("quad label must be an int or None")
        if self.quad is not None and self.quad < 0:
            raise ValueError(f"quad label must be nonnegative, got {self.quad}")

    def text(self) -> str:
        label = "comp" if self.quad is None else f"q{self.quad}"
        return label if self.family is Family.PLAIN else f"hat-{label}"


@per_dim_cache
def basis_alphabet(d: int, families: tuple[Family, ...] = (Family.PLAIN,)
                   ) -> tuple[BasisId, ...]:
    """All basis labels of the given families, computational first."""
    out: list[BasisId] = []
    for family in families:
        out.append(BasisId(family, None))
        out.extend(BasisId(family, b) for b in range(d))
    return tuple(out)


@per_dim_cache
def _omega_table(d: int) -> np.ndarray:
    """omega(d)^k over one period of omega (4 for d = 2, else d); every
    phase of every basis is read here."""
    if d == 2:
        return _frozen(np.array([1, 1j, -1, -1j]))
    return _frozen(np.exp(2j * np.pi * np.arange(d) / d))


def omega_power(d: int, exponent: int) -> complex:
    """The phase unit omega(d), i for d = 2 and exp(2 pi i / d) otherwise,
    raised to an exact integer exponent.

    The exponent is reduced modulo the actual period of omega: 4 for
    d = 2, d otherwise.
    """
    table = _omega_table(d)
    return complex(table[exponent % len(table)])


@per_dim_cache
def measurement_basis(d: int, basis: BasisId) -> np.ndarray:
    """One measurement basis (either family) as a read-only d x d matrix
    whose column m is its m-th ket."""
    if not isinstance(basis, BasisId):
        raise TypeError(f"basis must be a BasisId, got {type(basis).__name__}")
    if basis.quad is not None and basis.quad >= d:
        raise ValueError(f"quad label {basis.quad} outside [0, {d})")
    if basis.family is Family.HAT:
        plain = measurement_basis(d, BasisId(Family.PLAIN, basis.quad))
        # a stack of matrix-vector products, one per ket: one matrix
        # product would sum in another order and move entries by an ulp
        return _frozen((hadamard_root(d) @ plain.T[:, :, None])[:, :, 0].T.copy())
    if basis.quad is None:
        return _frozen(np.eye(d, dtype=complex))
    table = _omega_table(d)   # [n, m]: omega^(b n^2 - 2 n m) / sqrt(d)
    n = np.arange(d)[:, None]
    return _frozen(table[(basis.quad * n * n - 2 * n * n.T) % len(table)] / math.sqrt(d))


def _fourier_matrix(d: int) -> np.ndarray:
    n = np.arange(d)
    # reduce the exponent first: exp of a phase near 2 pi d loses digits
    return np.exp(2j * np.pi * (np.outer(n, n) % d) / d) / math.sqrt(d)


# (lam, sqrt(lam)) for each eigenvalue of F, on the principal branch.
_FOURIER_EIGENVALUE_ROOTS = ((1, 1), (-1, 1j), (1j, cmath.exp(0.25j * math.pi)),
                             (-1j, cmath.exp(-0.25j * math.pi)))


@per_dim_cache
def hadamard_root(d: int) -> np.ndarray:
    """Principal square root h of the Fourier matrix, so h @ h = F.

    F^4 = I, so the eigenvalues of F lie in {1, -1, i, -i} and its
    spectral projectors are the exact polynomials
    P_lam = 1/4 sum_j lam^-j F^j.  Then h = sum_lam sqrt(lam) P_lam,
    with the principal roots sqrt(-1) = i, sqrt(i) = exp(i pi/4) and
    sqrt(-i) = exp(-i pi/4).  F^2 is the parity n -> -n and F^3 = conj(F).

    Each term is a scalar times one of those four symmetric matrices, so
    h equals its transpose bit for bit: column m of h is the hat ket
    |m-hat>, and h is the unitary the hat family is transported by.  The
    hat basis is only useful if it is genuinely different from the
    computational basis and not mutually unbiased to it; both properties
    are checked here per dimension and violations raise.
    """
    f = _fourier_matrix(d)
    powers = (np.eye(d), f, np.eye(d)[-np.arange(d) % d], f.conj())
    h = sum(root * sum(lam ** -j * fj for j, fj in enumerate(powers)) / 4
            for lam, root in _FOURIER_EIGENVALUE_ROOTS)
    if np.abs(h @ h - f).max() > TOLERANCE:
        raise RuntimeError("matrix square root failed to reproduce the Fourier matrix")
    if np.abs(h @ h.conj().T - np.eye(d)).max() > TOLERANCE:
        raise RuntimeError("matrix square root is not unitary")
    eye = np.eye(d)
    separation = max(np.linalg.norm(h[:, [m]] - eye, axis=0).min() for m in range(d))
    if separation <= 0.1:
        raise RuntimeError(
            f"hat basis coincides with the computational basis at d={d}")
    if np.abs(np.abs(h) ** 2 - 1.0 / d).max() <= 1e-3:
        raise RuntimeError(
            f"hat basis is mutually unbiased to the computational basis at d={d}")
    return _frozen(h)


@per_dim_cache
def pair_outcome_labels(d: int) -> tuple[tuple[int, int], ...]:
    """(c, r) labels of the entangled basis, in flat index order c*d + r."""
    return tuple((c, r) for c in range(d) for r in range(d))


def _pair_amplitudes(d: int, family: Family, pairs: np.ndarray) -> np.ndarray:
    """<c,r;0|V> in the family's s = 0 pair basis, for each d x d pair
    matrix V (travelling index first) of the stack ``pairs``: the last
    axis of the result runs over (c, r) in :func:`pair_outcome_labels`
    order, the others are those of the stack.

    |c,r;0> is q_0 laid along n' = c - n, so <c,r;0|V> is
    sum_n V[n, c - n] conj(q_0[n, r]): one gather and one matrix product.
    A hat ket is (u (x) u) times a plain ket, so the hat amplitudes of V
    are the plain amplitudes of u^H V conj(u).
    """
    if family is Family.HAT:
        u = hadamard_root(d)
        pairs = u.conj().T @ pairs @ u.conj()
    n = np.arange(d)
    skew = pairs[..., n, (n[:, None] - n) % d]   # [..., c, n] = V[n, c - n]
    amps = skew @ measurement_basis(d, BasisId(Family.PLAIN, 0)).conj()
    return amps.reshape(*amps.shape[:-2], d * d)
