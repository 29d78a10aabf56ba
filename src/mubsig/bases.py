"""Construction of the measurement bases and entangled pair bases.

Two families are built for each prime dimension d:

* the plain family: the computational basis plus d quadratic-phase bases
  |m;b> = (1/sqrt d) sum_n |n> w^(b n^2 - 2 n m), all d+1 mutually
  unbiased, where w = i for d = 2 and w = exp(2 pi i / d) otherwise;
* the hat family: the same construction transported through the basis
  |m-hat> = sum_n |n> h[m, n], where h is the principal square root of
  the d-dimensional Fourier matrix.

The phase exponent b n^2 - 2 n m is an exact integer and is reduced only
modulo the true period of w (4 when d = 2, else d); reducing mod d first
would silently corrupt the d = 2 bases.

Entangled pair states |c,r;s> = (1/sqrt d) sum_n |n>|c-n> w^(s n^2 - 2 r n)
form, for fixed s, an orthonormal basis of the pair space; the hat
variant transports the s = 0 basis through the hat unitary on both halves.

Every basis is built whole, as a read-only matrix whose column k is its
k-th ket, from one cached table of the powers of w.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .finite_field import PrimeDim, per_dim_cache
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

    @property
    def is_computational(self) -> bool:
        return self.quad is None

    def text(self) -> str:
        label = "comp" if self.quad is None else f"q{self.quad}"
        return label if self.family is Family.PLAIN else f"hat-{label}"

    @classmethod
    def parse(cls, text: str) -> BasisId:
        body = text.strip()
        family = Family.PLAIN
        if body.startswith("hat-"):
            family = Family.HAT
            body = body[4:]
        if body == "comp":
            return cls(family, None)
        if body.startswith("q") and body[1:].isdigit():
            return cls(family, int(body[1:]))
        raise ValueError(f"unrecognized basis label {text!r}")


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


def omega(d: int) -> complex:
    """The phase unit for dimension d: i for d = 2, exp(2 pi i / d) otherwise."""
    return omega_power(d, 1)


def omega_power(d: int, exponent: int) -> complex:
    """omega(d) raised to an exact integer exponent.

    The exponent is reduced modulo the actual period of omega: 4 for
    d = 2 (omega = i), d otherwise.
    """
    table = _omega_table(d)
    return complex(table[exponent % len(table)])


def _quadratic_phases(d: int, q: int) -> np.ndarray:
    """[n, m] -> omega^(q n^2 - 2 n m) / sqrt(d)."""
    table = _omega_table(d)
    n = np.arange(d)[:, None]
    return table[(q * n * n - 2 * n * n.T) % len(table)] / math.sqrt(d)


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
        return _frozen((hat_unitary(d) @ plain.T[:, :, None])[:, :, 0].T.copy())
    if basis.quad is None:
        return _frozen(np.eye(d, dtype=complex))
    return _frozen(_quadratic_phases(d, basis.quad))


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
    """
    f = _fourier_matrix(d)
    powers = (np.eye(d), f, np.eye(d)[-np.arange(d) % d], f.conj())
    h = sum(root * sum(lam ** -j * fj for j, fj in enumerate(powers)) / 4
            for lam, root in _FOURIER_EIGENVALUE_ROOTS)
    if np.abs(h @ h - f).max() > TOLERANCE:
        raise RuntimeError("matrix square root failed to reproduce the Fourier matrix")
    if np.abs(h @ h.conj().T - np.eye(d)).max() > TOLERANCE:
        raise RuntimeError("matrix square root is not unitary")
    return _frozen(h)


@per_dim_cache
def hat_unitary(d: int) -> np.ndarray:
    """The unitary sending |m> to |m-hat> = sum_n |n> h[m, n], so column m
    is row m of the Hadamard root h.

    The hat basis is only useful if it is genuinely different from the
    computational basis and not mutually unbiased to it; both properties
    are checked here per dimension and violations raise.
    """
    u = hadamard_root(d).T.copy()
    eye = np.eye(d)
    separation = max(
        np.linalg.norm(u[:, [m]] - eye, axis=0).min() for m in range(d)
    )
    if separation <= 0.1:
        raise RuntimeError(
            f"hat basis coincides with the computational basis at d={d}")
    overlap_dev = np.abs(np.abs(u) ** 2 - 1.0 / d).max()
    if overlap_dev <= 1e-3:
        raise RuntimeError(
            f"hat basis is mutually unbiased to the computational basis at d={d}")
    return _frozen(u)


@per_dim_cache
def pair_outcome_labels(d: int) -> tuple[tuple[int, int], ...]:
    """(c, r) labels of the entangled basis, in flat index order c*d + r."""
    return tuple((c, r) for c in range(d) for r in range(d))


def entangled_basis(d: int, s: int = 0, family: Family = Family.PLAIN
                    ) -> np.ndarray:
    """The pair basis {|c,r;s>} as a read-only d^2 x d^2 matrix whose
    column c*d + r is |c,r;s> (:func:`pair_outcome_labels` order).

    The hat family is defined only at s = 0: its kets are (u (x) u)|c,r;0>
    with u the hat unitary, that is u Psi u^T on each d x d amplitude
    matrix Psi.  Only the s = 0 bases, which the protocols use, are kept,
    one entry each however the arguments are spelled, in the cache whose
    ``cache_info`` this carries; an s != 0 basis is built on every call.
    """
    if isinstance(s, bool) or not isinstance(s, int):
        raise TypeError(f"label s must be an int, got {type(s).__name__}")
    if not isinstance(family, Family):
        raise TypeError(f"family must be a Family, got {type(family).__name__}")
    return (_zero_pair_basis if s == 0 else _pair_basis)(d, s, family)


def _pair_basis(d: int, s: int, family: Family) -> np.ndarray:
    PrimeDim(d)
    if not 0 <= s < d:
        raise ValueError(f"label s={s} outside [0, {d})")
    if family is Family.HAT:
        if s != 0:
            raise ValueError("hat entangled basis exists only for s=0")
        u = hat_unitary(d)
        plain = entangled_basis(d).T.reshape(d * d, d, d)
        return _frozen((u @ plain @ u.T).reshape(d * d, d * d).T.copy())
    # [n, n', c, r]: amplitude of |n, n'> in |c,r;s>, nonzero only at n' = c - n
    n = np.arange(d)[:, None]
    e = np.zeros((d, d, d, d), dtype=complex)
    e[n, (n.T - n) % d, n.T] = _quadratic_phases(d, s)[:, None, :]
    return _frozen(e.reshape(d * d, d * d))


_zero_pair_basis = per_dim_cache(_pair_basis)
entangled_basis.cache_info = _zero_pair_basis.cache_info
