"""Single signalling rounds, one pure state at a time.

This is the state-by-state path the invariant suite checks the protocols
against.  It never reads the compiled outcome tables: each measurement
of a travelling half samples its outcome m with weight ||phi_m||^2 and
collapses the pair to b_m (x) phi_m / ||phi_m||, where
phi_m = (<b_m| (x) 1) Psi is what the kept half holds, and each pair
measurement samples from |E^H v|^2 for the pair state v.  Summed over the
unrecorded outcomes m this is the nonselective measurement, so the
recorded statistics are those of the density-operator description
(Nielsen & Chuang, section 2.4); the tables reach the same numbers by a
summed formula instead.

Convention as in :mod:`mubsig.protocol`: a pair is a d x d amplitude
matrix whose first index is the half that travels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    BasisId,
    Family,
    entangled_basis,
    measurement_basis,
    pair_outcome_labels,
)
from .protocol import _INCONCLUSIVE_CODE, _prep_pair, decode
from .quantum import sample_outcome


@dataclass(frozen=True)
class EveRecord:
    """What the eavesdropper saw and did in one intercepted round; ``decode``
    is her reading of ``outcome``, as a :func:`mubsig.protocol.decode` code."""

    outcome: tuple[int, int]
    decode: int
    forward_basis: BasisId | None  # None: the stolen qudit went back unmeasured


@dataclass(frozen=True)
class RoundRecord:
    """One signalling round, as visible to an all-seeing supervisor.

    The decodes are :func:`mubsig.protocol.decode` codes: -1 inconclusive,
    0 computational, 1 + b for q_b.
    """

    bob_basis: BasisId
    alice_prep_family: Family
    alice_outcome: tuple[int, int]
    alice_decode: int
    eve_active: bool
    eve_outcome: tuple[int, int] | None = None
    eve_decode: int | None = None
    eve_forward_basis: BasisId | None = None

    def __post_init__(self) -> None:
        if not self.eve_active and (self.eve_outcome is not None
                                    or self.eve_decode is not None
                                    or self.eve_forward_basis is not None):
            raise ValueError("eve fields must be empty when eve is inactive")
        if self.eve_active and (self.eve_outcome is None or self.eve_decode is None):
            raise ValueError("active eve must record an outcome and a decode")

    @property
    def sifted(self) -> bool:
        return self.alice_prep_family is self.bob_basis.family


def _travelling_branches(pair: np.ndarray, basis: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Measure the travelling half of ``pair`` in ``basis``, whose column m is b_m.

    Returns the outcome weights ||phi_m||^2 and, per outcome m, the
    collapsed pair b_m (x) phi_m / ||phi_m||.  The pairs measured here are
    maximally entangled, so every weight is 1/d.
    """
    phi = basis.conj().T @ pair   # row m: phi_m = (<b_m| (x) 1) pair
    weights = (np.abs(phi) ** 2).sum(axis=1)
    kept = phi / np.sqrt(weights)[:, None]
    return weights, basis.T[:, :, None] * kept[:, None, :]


def _collapse(pair: np.ndarray, basis: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """The pair after its travelling half is measured in ``basis`` and the
    outcome is drawn (one draw) and forgotten."""
    weights, collapsed = _travelling_branches(pair, basis)
    return collapsed[sample_outcome(weights, rng)]


def _pair_probs(d: int, family: Family, pair: np.ndarray) -> np.ndarray:
    """Born probabilities |<e_k|v>|^2 of ``pair`` in the family's entangled basis."""
    return np.abs(pair.ravel().conj() @ entangled_basis(d, 0, family)) ** 2


def _measure_pair(d: int, family: Family, pair: np.ndarray,
                  rng: np.random.Generator) -> tuple[tuple[int, int], int]:
    c, r = pair_outcome_labels(d)[sample_outcome(_pair_probs(d, family, pair), rng)]
    return (c, r), int(decode(d, (0, 0, 0), (c, r)))


def _forward_basis(family: Family, code: int) -> BasisId | None:
    """The basis Eve resends in after decoding ``code``; None when inconclusive."""
    if code == _INCONCLUSIVE_CODE:
        return None
    return BasisId(family, None if code == 0 else code - 1)


def eve_dual_family_attack(d: int, bob_basis: BasisId, eve_family: Family,
                           rng: np.random.Generator) -> EveRecord:
    """The substitution (intercept-resend) attack, with Eve's pair and
    decoding basis in ``eve_family``.

    Eve keeps the travelling qudit, feeds Bob half of her own (0,0;0)
    pair, measures her pair in the entangled basis once it returns, and
    — when conclusive — decodes b and measures the stolen qudit in that
    basis before forwarding it.  Against the original protocol her
    family is plain.  Against the dual-family protocol she must commit to
    one family; when Bob signals in the other, her held pair is no longer
    diagonal in her basis and her resend disturbs the sifted statistics.
    """
    after_bob = _collapse(_prep_pair(d, eve_family), measurement_basis(d, bob_basis), rng)
    outcome, code = _measure_pair(d, eve_family, after_bob, rng)
    return EveRecord(outcome, code, _forward_basis(eve_family, code))


def _alice_round(d: int, family: Family, forward_basis: BasisId | None,
                 rng: np.random.Generator) -> tuple[tuple[int, int], int]:
    pair = _prep_pair(d, family)
    if forward_basis is not None:
        pair = _collapse(pair, measurement_basis(d, forward_basis), rng)
    return _measure_pair(d, family, pair, rng)


def run_round_original(d: int, bob_basis: BasisId, rng: np.random.Generator,
                       *, eve: bool = False) -> RoundRecord:
    """One signalling round of the original protocol."""
    if bob_basis.family is not Family.PLAIN:
        raise ValueError("the original protocol signals with plain-family bases")
    return run_protocol2_round(d, Family.PLAIN, bob_basis, rng,
                               eve_family=Family.PLAIN if eve else None)


def run_protocol2_round(d: int, alice_family: Family, bob_basis: BasisId,
                        rng: np.random.Generator, *,
                        eve_family: Family | None = None) -> RoundRecord:
    """One round of the dual-family protocol (sifting left to the caller)."""
    if eve_family is None:
        outcome, code = _alice_round(d, alice_family, bob_basis, rng)
        return RoundRecord(bob_basis, alice_family, outcome, code, eve_active=False)
    erec = eve_dual_family_attack(d, bob_basis, eve_family, rng)
    outcome, code = _alice_round(d, alice_family, erec.forward_basis, rng)
    return RoundRecord(bob_basis, alice_family, outcome, code, eve_active=True,
                       eve_outcome=erec.outcome, eve_decode=erec.decode,
                       eve_forward_basis=erec.forward_basis)
