"""Reference routes the package is tested against, kept out of the package.

* The dense pair basis: every ket |c,r;s> as a column of one d^2 x d^2
  matrix, which the package never builds.
* The dense density-operator route: a d^2 x d^2 matrix per pair state,
  the Born rule, the nonselective measurement of one half and the
  partial trace.  The package itself works on pure states and exact
  tables; these plain functions on arrays are what those are checked
  against.
* The undisturbed pre-test joint over (b, m, a, m'), as one dense array
  and one cell at a time, and the total-variation distance between
  joints or from count vectors.
* Outcome sampling by a float inverse CDF, one ``rng.random()`` and one
  ``searchsorted`` per draw: the draws that the single-round oracle
  makes off its cached CDFs, replayed on an identically seeded generator.
* The decode rule in plain-integer arithmetic, with ``pow(a, -1, d)``
  for the inverse, and the round-by-round reading of a ``RoundLog`` built
  on it, so a log is read back without the engine's code table.

Conventions as in the package: a basis is a matrix whose column i is its
i-th ket, a pair index (n1, n2) is n1 * d + n2, and the first half of a
pair is the one that travels.  Decode codes are -1 for inconclusive, 0
for the computational basis and 1 + b for q_b.
"""

import math
from collections import namedtuple

import numpy as np

from mubsig.bases import (
    BasisId,
    Family,
    basis_alphabet,
    hadamard_root,
    measurement_basis,
    pair_outcome_labels,
)
from mubsig.quantum import _cdf, _clean_probabilities


def entangled_basis(d, s=0, family=Family.PLAIN):
    """The pair basis {|c,r;s>} as a d^2 x d^2 matrix whose column c*d + r is
    |c,r;s>: amplitude w^(s n^2 - 2 r n)/sqrt(d), entry [n, r] of q_s, on
    |n, c - n>.  The hat kets are (u (x) u)|c,r;s>, u Psi u^T on each d x d
    amplitude matrix Psi, with u the hat transport, the Hadamard root."""
    n = np.arange(d)[:, None]
    e = np.zeros((d, d, d, d), dtype=complex)   # [n, n', c, r]
    e[n, (n.T - n) % d, n.T] = measurement_basis(d, BasisId(Family.PLAIN, s))[:, None, :]
    basis = e.reshape(d * d, d * d)
    if family is Family.HAT:
        u = hadamard_root(d)
        basis = (u @ basis.T.reshape(d * d, d, d) @ u.T).reshape(d * d, d * d).T
    return basis


def density(ket):
    """|psi><psi| of an amplitude vector or a d x d amplitude matrix."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def born_probabilities(rho, basis):
    """<e_i| rho |e_i> for the columns e_i of ``basis``."""
    return np.einsum("ji,ji->i", basis.conj(), rho @ basis).real


def nonselective_measure(rho, subsystem, basis):
    """sum_m P_m rho P_m with P_m = |b_m><b_m| on ``subsystem`` (1 or 2) of a pair.

    The measured half is rotated into the basis, the d diagonal blocks
    <b_m| rho |b_m> on the other half are kept, and the result is
    rotated back.
    """
    d = basis.shape[0]
    swap = (1, 0, 3, 2) if subsystem == 2 else (0, 1, 2, 3)   # measured half first
    r = rho.reshape(d, d, d, d).transpose(swap)
    blocks = np.einsum("im,ijkl,km->mjl", basis.conj(), r, basis, optimize=True)
    out = np.einsum("im,mjl,km->ijkl", basis, blocks, basis.conj(), optimize=True)
    return out.transpose(swap).reshape(d * d, d * d)


def partial_trace(rho, keep):
    """Reduced state of half ``keep`` (1 or 2) of a pair."""
    d = math.isqrt(rho.shape[0])
    r = rho.reshape(d, d, d, d)
    return np.trace(r, axis1=1, axis2=3) if keep == 1 else np.trace(r, axis1=0, axis2=2)


def sample_outcome(probs, rng, size=None):
    """Outcome indices drawn by inverse CDF in the given ordering.

    No outcome below ``TOLERANCE`` is ever drawn (see ``quantum._cdf``).
    With ``size=None`` returns a single int; otherwise an int64 array.
    """
    cdf = _cdf(_clean_probabilities(np.asarray(probs, dtype=float)))
    u = rng.random() if size is None else rng.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    if size is None:
        return int(idx)
    return idx.astype(np.int64)


def pretest_joint(d):
    """The undisturbed pre-test joint as a read-only array of shape
    (d+1, d, d+1, d), indexed [b, m, a, m'], bases in ``basis_alphabet``
    order: Bob picks b uniformly and measures his half of the (0,0;0)
    pair, and Alice picks a uniformly and measures hers."""
    alphabet = basis_alphabet(d)
    # bh[b, m] is <b_m| of basis b
    bh = np.array([measurement_basis(d, b) for b in alphabet]).conj().transpose(0, 2, 1)
    psi = entangled_basis(d)[:, 0].reshape(d, d)
    kept = (psi.T @ bh[..., None])[..., 0]   # [b, m]: Alice's half
    amps = bh @ kept[:, :, None, :, None]   # [b, m, a, m', 1]
    probs = np.abs(amps[..., 0]) ** 2 / len(alphabet) ** 2
    probs.setflags(write=False)
    return probs


def total_variation(counts, total, ideal):
    """Total-variation distance of count vectors (last axis: the flat cells)
    of ``total`` rounds each from the flat distribution ``ideal``; with
    ``total=1``, of one distribution from another."""
    return 0.5 * np.abs(np.asarray(counts) / total - ideal).sum(axis=-1)


def pretest_loop(d):
    """The undisturbed pre-test joint over (b, m, a, m'), flat in row-major
    order: Bob's kept-half state per (b, m), then Alice's Born rule per a."""
    psi = entangled_basis(d)[:, 0].reshape(d, d)
    alphabet = basis_alphabet(d)
    n_bases = len(alphabet)
    probs = np.zeros((n_bases * d) ** 2)
    flat = 0
    for b in alphabet:
        ub = measurement_basis(d, b)
        for m in range(d):
            conditional = ub[:, m].conj() @ psi   # unnormalized kept-half state
            for a in alphabet:
                ua = measurement_basis(d, a)
                joint = np.abs(ua.conj().T @ conditional) ** 2 / n_bases ** 2
                for mp in range(d):
                    probs[flat] = joint[mp]
                    flat += 1
    return probs


def decode_oracle(d, c, r, s, cp, rp):
    """The decode code of outcome (c', r') of preparation (c, r, s), in plain ints."""
    if cp == c:
        return -1 if rp == r else 0
    return 1 + (s - (r - rp) * pow((c - cp) % d, -1, d)) % d


def basis_code(basis):
    """The decode code that names ``basis`` (its family aside)."""
    return 0 if basis.quad is None else 1 + basis.quad


def decode_text(code):
    """A decode code as the CSV log writes it."""
    return "inconclusive" if code < 0 else "comp" if code == 0 else f"q{code - 1}"


SignalRound = namedtuple("SignalRound", "bob_basis alice_prep_family alice_outcome "
                                        "alice_decode eve_outcome eve_decode")


def signal_rounds(log):
    """The signal rounds of a RoundLog, each outcome read with :func:`decode_oracle`."""
    labels = pair_outcome_labels(log.d)
    codes = [decode_oracle(log.d, 0, 0, 0, c, r) for c, r in labels]
    eve = [None] * log.basis.size if log.eve_outcome is None else log.eve_outcome.tolist()
    return [SignalRound(log.alphabet[b], (Family.PLAIN, Family.HAT)[f], labels[o], codes[o],
                        None if e is None else labels[e], None if e is None else codes[e])
            for f, b, o, e in zip(log.family.tolist(), log.basis.tolist(),
                                  log.outcome.tolist(), eve)]
