"""Dense complex linear algebra for one- and two-qudit states.

Kets, density operators, the Born rule, nonselective measurement and
the partial trace are the dense reference route the faster paths are
tested against; outcome sampling lives here too.  States are plain numpy
arrays wrapped in thin value types that validate their defining
invariants once, at construction; a measurement basis is a bare matrix
whose column i is its i-th ket.  The joint index
convention for a pair is (n1, n2) -> n1 * d + n2.  All comparisons use a
single numeric tolerance; probabilities that dip below zero by more than
that tolerance are treated as bugs, not noise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

TOLERANCE = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_dims(dims: tuple[int, ...], size: int) -> tuple[int, ...]:
    dims = tuple(int(x) for x in dims)
    if len(dims) not in (1, 2) or any(x < 2 for x in dims):
        raise ValueError(f"dims must be (D,) or (d, d), got {dims}")
    if len(dims) == 2 and dims[0] != dims[1]:
        raise ValueError(f"pair dims must be equal, got {dims}")
    if int(np.prod(dims)) != size:
        raise ValueError(f"dims {dims} do not match vector size {size}")
    return dims


class Ket:
    """A unit-norm complex amplitude vector.

    ``dims`` is ``(D,)`` for a single system or ``(d, d)`` for a qudit
    pair.  Construction rejects non-unit vectors; use :meth:`normalized`
    to rescale explicitly.
    """

    __slots__ = ("_amps", "_dims")

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray,
                 dims: tuple[int, ...] | None = None):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        self._dims = _check_dims(dims if dims is not None else (amps.size,), amps.size)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOLERANCE:
            raise ValueError(f"ket must have unit norm, got {norm!r}")
        self._amps = _frozen(amps)

    @classmethod
    def normalized(cls, amplitudes: Sequence[complex] | np.ndarray,
                   dims: tuple[int, ...] | None = None) -> Ket:
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm <= TOLERANCE:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(amps / norm, dims)

    @classmethod
    def basis_state(cls, index: int, dims: tuple[int, ...] | int) -> Ket:
        if isinstance(dims, int):
            dims = (dims,)
        size = int(np.prod(dims))
        if not 0 <= index < size:
            raise ValueError(f"basis index {index} outside [0, {size})")
        amps = np.zeros(size, dtype=complex)
        amps[index] = 1.0
        return cls(amps, dims)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def size(self) -> int:
        return self._amps.size

    def __repr__(self) -> str:
        return f"Ket(dims={self._dims}, amplitudes={self._amps!r})"


class DensityOperator:
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    All three properties are checked at construction within
    :data:`TOLERANCE`, so anything that survives construction is safe to
    feed onward without re-validation.
    """

    __slots__ = ("_matrix", "_dims")

    def __init__(self, matrix: np.ndarray, dims: tuple[int, ...] | None = None):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        self._dims = _check_dims(dims if dims is not None else (m.shape[0],), m.shape[0])
        if np.abs(m - m.conj().T).max() > TOLERANCE:
            raise ValueError("density matrix must be Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > TOLERANCE:
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")
        lo = np.linalg.eigvalsh((m + m.conj().T) / 2.0).min()
        if lo < -TOLERANCE:
            raise ValueError(f"density matrix must be positive semidefinite, "
                             f"smallest eigenvalue {lo!r}")
        self._matrix = _frozen(m)

    @classmethod
    def from_ket(cls, ket: Ket) -> DensityOperator:
        amps = ket.amplitudes
        return cls(np.outer(amps, amps.conj()), dims=ket.dims)

    @classmethod
    def maximally_mixed(cls, dims: tuple[int, ...] | int) -> DensityOperator:
        if isinstance(dims, int):
            dims = (dims,)
        size = int(np.prod(dims))
        return cls(np.eye(size, dtype=complex) / size, dims=dims)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def size(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(dims={self._dims}, trace={np.trace(self._matrix)!r})"


def _clean_probabilities(p: np.ndarray) -> np.ndarray:
    if p.min() < -TOLERANCE:
        raise ValueError(f"probability {p.min()!r} below -tolerance; "
                         "upstream state is corrupt")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > TOLERANCE:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p


def born_probabilities(rho: DensityOperator, basis: np.ndarray) -> np.ndarray:
    """Outcome probabilities <e_i|rho|e_i> for a projective measurement in
    ``basis``, whose column i is e_i."""
    if basis.shape != rho.matrix.shape:
        raise ValueError(f"basis shape {basis.shape} does not match state {rho.matrix.shape}")
    p = np.einsum("ji,ji->i", basis.conj(), rho.matrix @ basis).real
    return _clean_probabilities(p)


def nonselective_measure(rho: DensityOperator, subsystem: int,
                         basis: np.ndarray) -> DensityOperator:
    """Measure one half of a pair projectively and forget the outcome.

    Returns sum_m P_m rho P_m with P_m = |b_m><b_m| acting on ``subsystem``
    (1 or 2), b_m being column m of ``basis``: rotate the measured half
    into the basis, keep the d diagonal blocks <b_m| rho |b_m> on the
    other half, and rotate back, in O(d^5).
    """
    if len(rho.dims) != 2:
        raise ValueError("nonselective_measure expects a two-qudit state")
    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    d = rho.dims[0]
    if basis.shape != (d, d):
        raise ValueError(f"basis shape {basis.shape} does not match subsystem dim {d}")
    swap = (1, 0, 3, 2) if subsystem == 2 else (0, 1, 2, 3)   # measured half first
    r = rho.matrix.reshape(d, d, d, d).transpose(swap)
    blocks = np.einsum("im,ijkl,km->mjl", basis.conj(), r, basis, optimize=True)
    out = np.einsum("im,mjl,km->ijkl", basis, blocks, basis.conj(), optimize=True)
    return DensityOperator(out.transpose(swap).reshape(d * d, d * d), dims=rho.dims)


def partial_trace(rho: DensityOperator, keep: int) -> DensityOperator:
    """Reduced state of one half of a pair (``keep`` is 1 or 2)."""
    if len(rho.dims) != 2:
        raise ValueError("partial_trace expects a two-qudit state")
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep}")
    d = rho.dims[0]
    r = rho.matrix.reshape(d, d, d, d)
    if keep == 1:
        reduced = np.trace(r, axis1=1, axis2=3)
    else:
        reduced = np.trace(r, axis1=0, axis2=2)
    return DensityOperator(reduced, dims=(d,))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution(s) along the last axis, safe to invert.

    Cells below ``TOLERANCE`` become exact zeros, and each CDF reads
    exactly 1.0 from its last possible cell on.  An inverse-CDF lookup
    with ``u < 1`` therefore lands on an outcome of nonzero probability,
    whatever the round-off in the running sums.
    """
    p = np.where(probs < TOLERANCE, 0.0, probs)
    cum = np.cumsum(p, axis=-1)
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(p.shape[-1]) >= np.expand_dims(last, -1)] = 1.0
    return _frozen(cum)


def sample_outcome(probs: np.ndarray, rng: np.random.Generator,
                   size: int | None = None) -> int | np.ndarray:
    """Draw outcome indices by inverse-CDF in the given ordering.

    No outcome below ``TOLERANCE`` is ever drawn (see :func:`_cdf`).
    With ``size=None`` returns a single int; otherwise an int64 array.
    """
    cdf = _cdf(_clean_probabilities(np.asarray(probs, dtype=float)))
    u = rng.random() if size is None else rng.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    if size is None:
        return int(idx)
    return idx.astype(np.int64)
