"""Single signalling rounds, one pure state at a time.

This is the state-by-state path the invariant suite checks the protocols
against.  It never reads the compiled outcome tables.  Each party does
the same thing, :func:`_measure`: take the family's (0,0) pair, measure
its travelling half in a basis (sample m with weight ||phi_m||^2 and
collapse the pair to b_m (x) phi_m / ||phi_m||, where
phi_m = (<b_m| (x) 1) Psi is what the kept half holds), then measure the
pair in the family's entangled basis (sample from |<e_k|v_m>|^2).  A
clean round is one such call, Alice's in Bob's basis; an attacked round
is two, Eve's on her decoy in Bob's basis, then Alice's in the basis Eve
resends in.  Summed over the unrecorded outcomes m this is the
nonselective measurement, so the recorded statistics are those of the
density-operator description (Nielsen & Chuang, section 2.4); the tables
reach the same numbers by a summed formula instead.

The branch amplitudes <e_k|v_m> of a (d, family, basis) are computed by
:func:`_amplitudes`, which :mod:`mubsig.verify` reads too, and are not
kept.  A round draws from the two CDFs :func:`_round_cdfs` caches for its
(d, family, basis), each ``_cdf(_clean_probabilities(p))`` of the
probabilities p, so a draw is one ``u = rng.random()`` and one
``searchsorted(cdf, u, side="right")``: never a cell below the
tolerance, and one uniform per draw in draw order.  A round's
decode is read off ``protocol._decode_codes``: :func:`mubsig.protocol.decode`
of every outcome, computed once per d.

Convention as in :mod:`mubsig.protocol`: a pair is a d x d amplitude
matrix whose first index is the half that travels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisId, Family, _pair_amplitudes, measurement_basis, pair_outcome_labels
from .finite_field import per_dim_cache
from .protocol import _INCONCLUSIVE_CODE, _decode_codes, _prep_pair
from .quantum import _cdf, _clean_probabilities


@dataclass(frozen=True)
class RoundRecord:
    """One signalling round, as visible to an all-seeing supervisor.

    The decodes are :func:`mubsig.protocol.decode` codes: -1 inconclusive,
    0 computational, 1 + b for q_b.  Eve's fields are None in a round she
    left alone; her forward basis is also None when her decode was
    inconclusive and the stolen qudit went back unmeasured.
    """

    bob_basis: BasisId
    alice_prep_family: Family
    alice_outcome: tuple[int, int]
    alice_decode: int
    eve_outcome: tuple[int, int] | None = None
    eve_decode: int | None = None
    eve_forward_basis: BasisId | None = None

    def __post_init__(self) -> None:
        if ((self.eve_outcome is None) != (self.eve_decode is None)
                or (self.eve_outcome is None and self.eve_forward_basis is not None)):
            raise ValueError("eve's outcome and decode are set together, "
                             "and a forward basis needs both")


def _branches(d: int, family: Family, basis: BasisId) -> tuple[np.ndarray, np.ndarray]:
    """Measure the travelling half of the family's (0,0) pair in ``basis``,
    whose column m is b_m.

    Returns the outcome weights ||phi_m||^2 and, per outcome m, the
    collapsed pair b_m (x) phi_m / ||phi_m|| (d x d, travelling index
    first).  The pair is maximally entangled, so every weight is 1/d.
    """
    b = measurement_basis(d, basis)
    phi = b.conj().T @ _prep_pair(d, family)   # row m: phi_m = (<b_m| (x) 1) pair
    weights = (np.abs(phi) ** 2).sum(axis=1)
    kept = phi / np.sqrt(weights)[:, None]
    return weights, b.T[:, :, None] * kept[:, None, :]


def _amplitudes(d: int, family: Family, basis: BasisId | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The branches of the family's (0,0) pair after its travelling half is
    measured in ``basis``, in the family's entangled basis {e_k}.

    Returns the weights w_m = ||phi_m||^2 of :func:`_branches` and the
    amplitudes a[m, k] = <e_k|v_m> of its collapsed branches v_m, read off
    the pair basis's structure by :func:`mubsig.bases._pair_amplitudes`.
    With ``basis`` None the pair is left untouched: one branch, weight 1.
    """
    if basis is None:
        weights, pairs = np.ones(1), _prep_pair(d, family)[None]
    else:
        weights, pairs = _branches(d, family, basis)
    return weights, _pair_amplitudes(d, family, pairs)


@per_dim_cache
def _round_cdfs(d: int, family: Family, basis: BasisId | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The read-only CDFs a round draws from: that of the weights w_m of
    :func:`_amplitudes`, and in row m that of the |a[m, k]|^2 over k.

    The cache lives as long as the process and holds one entry per
    (family, basis) a round measured in: at most 2(2d+3) entries of
    d(d^2 + 1) floats each.  Code that patches what this function reads
    clears the caches as :func:`mubsig.finite_field.per_dim_cache` says.
    """
    weights, amps = _amplitudes(d, family, basis)
    return _cdf(_clean_probabilities(weights)), _cdf(_clean_probabilities(np.abs(amps) ** 2))


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One inverse-CDF draw: the first cell whose CDF exceeds ``rng.random()``."""
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def _measure(d: int, family: Family, basis: BasisId | None,
             rng: np.random.Generator) -> tuple[tuple[int, int], int]:
    """The family's (0,0) pair, its travelling half measured in ``basis``
    (one draw, outcome forgotten; None leaves the pair untouched), then
    measured in the family's entangled basis (one draw).

    Returns the pair outcome (c, r) and its decode.
    """
    weight_cdf, cdf = _round_cdfs(d, family, basis)
    m = 0 if basis is None else _draw(weight_cdf, rng)
    k = _draw(cdf[m], rng)
    return pair_outcome_labels(d)[k], int(_decode_codes(d)[k])


def _forward_basis(family: Family, code: int) -> BasisId | None:
    """The basis Eve resends in after decoding ``code``; None when inconclusive."""
    if code == _INCONCLUSIVE_CODE:
        return None
    return BasisId(family, None if code == 0 else code - 1)


def run_round(d: int, alice_family: Family, bob_basis: BasisId,
              rng: np.random.Generator, *,
              eve_family: Family | None = None) -> RoundRecord:
    """One round of any protocol (sifting left to the caller); the
    single-family protocols pass ``Family.PLAIN`` for Alice's family.

    ``eve_family`` runs the substitution (intercept-resend) attack: Eve
    keeps the travelling qudit, feeds Bob half of her own (0,0) pair in
    that family, and resends the stolen qudit measured in the basis she
    decodes (unmeasured when inconclusive).  She must commit to one
    family; when Bob signals in the other, her held pair is no longer
    diagonal in her basis and her resend disturbs the sifted statistics.
    """
    eve_outcome = eve_code = forward = None
    alice_basis: BasisId | None = bob_basis
    if eve_family is not None:
        eve_outcome, eve_code = _measure(d, eve_family, bob_basis, rng)
        alice_basis = forward = _forward_basis(eve_family, eve_code)
    outcome, code = _measure(d, alice_family, alice_basis, rng)
    return RoundRecord(bob_basis, alice_family, outcome, code,
                       eve_outcome, eve_code, forward)
