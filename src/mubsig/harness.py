"""Monte Carlo trial running and the exact reference distributions the
sessions are checked against.

Everything here is deterministic given the configured seed: rounds are
sampled block-wise from streams derived purely from (seed, block index),
so reports are byte-for-byte reproducible at any degree of parallelism.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bases import BasisId, Family, basis_alphabet
from .finite_field import PrimeDim
from .protocol import (
    _FAMILIES,
    _PROTOCOLS,
    EveMode,
    Protocol,
    RoundLog,
    SessionReport,
    _decode_codes,
    _finish,
    _run_session,
    pair_outcome_labels,
    pair_outcome_probs,
)
from .quantum import _frozen

__all__ = [
    "AnalyticDistribution",
    "EveMode",
    "HarnessConfig",
    "Protocol",
    "analytic_outcome_distribution",
    "dual_family_detection_probability",
    "run_trials",
]


# One row per HarnessConfig field, in echo order: config key -> (field, the type
# its value is read as or None, the help of its ``run`` flag or None for none).
_CONFIG_KEYS: dict[str, tuple[str, type | None, str | None]] = {
    "dim": ("d", int, "prime Hilbert-space dimension"),
    "protocol": ("protocol", Protocol, "which signaling protocol to run"),
    "eve": ("eve", EveMode, "eavesdropping strategy (default off)"),
    "rounds": ("rounds", int, "number of rounds"),
    "seed": ("seed", int, "session seed (default 0)"),
    "pretest_fraction": ("pretest_fraction", float,
                         "fraction of rounds spent on the tomography pre-test"),
    "posttest_fraction": ("posttest_fraction", float,
                          "fraction of conclusive rounds revealed for checking"),
    "message_distribution": ("message_distribution", None, None),
}


@dataclass(frozen=True)
class HarnessConfig:
    """Everything needed to reproduce one session exactly."""

    d: int
    protocol: Protocol
    rounds: int
    eve: EveMode = EveMode.OFF
    pretest_fraction: float | None = None
    posttest_fraction: float | None = None
    seed: int = 0
    message_distribution: str | Mapping[str, float] = "uniform"

    def __post_init__(self) -> None:
        PrimeDim(self.d)
        for field, kind, _ in _CONFIG_KEYS.values():   # an unset fraction is None
            value = getattr(self, field)
            if kind is not None and not (kind is float and value is None) and (
                    isinstance(value, bool) or not isinstance(value, kind)):
                raise TypeError(f"{field} must be of type {kind.__name__}, got {value!r}")
        if not 1 <= self.rounds <= 2 ** 32:   # at most 131072 blocks per session
            raise ValueError("rounds must lie in [1, 2**32]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        _, attack, need_pre, need_post = _PROTOCOLS[self.protocol]
        if self.eve not in (EveMode.OFF, attack):
            raise ValueError(f"protocol {self.protocol.value} admits eve off or "
                             f"{attack.value}, not {self.eve.value}")
        for name, value, needed in (("pretest_fraction", self.pretest_fraction, need_pre),
                                    ("posttest_fraction", self.posttest_fraction, need_post)):
            if needed:
                if value is None or not 0.0 < value < 1.0:
                    raise ValueError(f"{name} must lie in (0, 1) for "
                                     f"protocol {self.protocol.value}")
            elif value is not None:
                raise ValueError(f"{name} does not apply to protocol "
                                 f"{self.protocol.value}")
        if not need_pre <= self.pretest_rounds() < self.rounds:   # both phases nonempty
            raise ValueError(f"pretest_fraction={self.pretest_fraction} of {self.rounds} rounds "
                             "leaves an empty pre-test or signal phase")
        self.message_weights()  # validate eagerly

    def pretest_rounds(self) -> int:
        """Rounds spent on the tomography pre-test; the rest signal."""
        return int(round(self.rounds * (self.pretest_fraction or 0)))

    def alphabet(self) -> tuple[BasisId, ...]:
        return basis_alphabet(self.d, _PROTOCOLS[self.protocol][0])

    def message_weights(self) -> np.ndarray:
        """Message weights aligned to :meth:`alphabet`; all ones for uniform."""
        dist = self.message_distribution
        alphabet = self.alphabet()
        if isinstance(dist, str):
            if dist != "uniform":
                raise ValueError(f"unknown message distribution {dist!r}")
            return np.ones(len(alphabet))
        if not isinstance(dist, Mapping):
            raise ValueError("message distribution must be 'uniform' or a mapping "
                             "from basis label to weight")
        known = {b.text(): i for i, b in enumerate(alphabet)}
        weights = np.zeros(len(alphabet))
        for label, w in dist.items():
            if label not in known:
                raise ValueError(f"message label {label!r} not in the "
                                 f"{self.protocol.value} alphabet")
            if not _is_weight(w):
                raise ValueError(f"message weight for {label!r} must be a finite "
                                 f"number >= 0")
            weights[known[label]] = w
        return _checked_weights(weights, len(alphabet))


def _is_weight(w) -> bool:
    """Whether ``w`` is a real number, not a bool, finite and >= 0 as a float.

    It is converted before the range test: an ``np.float32`` compared with
    the largest double would be compared in float32, where that overflows."""
    if isinstance(w, bool) or not isinstance(w, numbers.Real):
        return False
    try:
        return 0 <= float(w) <= sys.float_info.max
    except OverflowError:   # an int or Fraction beyond every float
        return False


def _checked_weights(weights, n_bases: int) -> np.ndarray:
    """``weights`` as floats: ``n_bases`` entries >= 0 with a positive, finite sum."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_bases,):
        raise ValueError(f"expected {n_bases} message weights, got shape {weights.shape}")
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValueError("message weights must be finite and >= 0")
    with np.errstate(over="ignore"):
        total = weights.sum()
    if total <= 0:
        raise ValueError("message weights must not all vanish")
    if not np.isfinite(total):
        raise ValueError("message weights must have a finite sum")
    return weights


@dataclass(frozen=True)
class AnalyticDistribution:
    """A labelled exact probability vector."""

    labels: tuple
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = _frozen(np.asarray(self.probabilities, dtype=float).copy())
        object.__setattr__(self, "probabilities", probs)
        if len(self.labels) != probs.size:
            raise ValueError("labels and probabilities differ in length")
        if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError("probabilities must be nonnegative and sum to 1")

    def as_mapping(self) -> dict:
        return dict(zip(self.labels, self.probabilities))


def analytic_outcome_distribution(d: int, bob_basis: BasisId) -> AnalyticDistribution:
    """Alice's exact outcome distribution for one matched-family round.

    Alice prepares the (0,0) pair of ``bob_basis.family``, Bob measures
    the travelling half in ``bob_basis``, and Alice measures the pair in
    her family's entangled basis.  This is a row of the exact table the
    sessions sample, compiled from the pure pair state; the tests check it
    against the dense density-matrix derivation, and against the
    state-by-state single-round path.
    """
    if not isinstance(bob_basis, BasisId):
        raise TypeError(f"bob_basis must be a BasisId, got {type(bob_basis).__name__}")
    probs = pair_outcome_probs(d, bob_basis.family, bob_basis)
    return AnalyticDistribution(pair_outcome_labels(d), probs)


def dual_family_detection_probability(d: int, eve_family: Family = Family.PLAIN,
                                      message_weights: np.ndarray | None = None,
                                      ) -> float:
    """Exact P(checked decode names the wrong basis | round survived sifting).

    The attacker runs her substitution attack in ``eve_family``.  Each
    exact outcome row is folded into the basis it decodes to: her read of
    her decoy per basis j of Bob's, ``eve[j, c]``, and Alice's read per
    family f she prepared and basis c of the attacker's resend,
    ``alice[f, c, c']``.  Sifting keeps the rounds where Alice prepared
    Bob's family.  An inconclusive attacker sends the pair back
    untouched and Alice then reads inconclusive, so that case adds to
    neither sum.  This is the quantity the dual-family session's
    ``detection_rate`` estimates.  ``message_weights`` has one finite,
    nonnegative entry per basis of both families, in
    :func:`basis_alphabet` order, and a positive, finite sum.
    """
    if not isinstance(eve_family, Family):
        raise TypeError(f"eve_family must be a Family, got {eve_family!r}")
    alphabet = basis_alphabet(d, _FAMILIES)   # checks d before any work
    per_family = d + 1
    weights = np.ones(len(alphabet)) if message_weights is None else _checked_weights(
        message_weights, len(alphabet))
    decoded = (_decode_codes(d)[:, None] == np.arange(per_family)).astype(float)
    eve = np.array([pair_outcome_probs(d, eve_family, b) @ decoded for b in alphabet])
    alice = np.array([[pair_outcome_probs(d, f, b) @ decoded
                       for b in basis_alphabet(d, (eve_family,))] for f in _FAMILIES])
    # reach[f, j, c']: Bob sent the j-th basis of family f, and Alice, who
    # prepared f, decoded c'
    reach = (weights[:, None] * eve).reshape(2, per_family, per_family) @ alice
    p_kept = reach.sum()
    p_mismatch = reach[:, ~np.eye(per_family, dtype=bool)].sum()
    if p_kept <= 0.0:
        raise RuntimeError("attack left no sifted conclusive rounds")
    return float(p_mismatch / p_kept)


def run_trials(config: HarnessConfig, *, workers: int = 1,
               return_rounds: bool = False,
               ) -> SessionReport | tuple[SessionReport, RoundLog]:
    """Run one session described by ``config``.

    Deterministic given ``config.seed``; ``workers`` only spreads the
    fixed blocks over threads and cannot change any reported value.
    With ``return_rounds=True`` also returns every round as a
    :class:`~mubsig.protocol.RoundLog`, in round order, the only copy of
    the rounds held (see :func:`~mubsig.protocol._finish`).
    """
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"workers must be of type int, got {workers!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    report, log = _finish(config, _run_session(config, workers, return_rounds))
    return (report, log) if return_rounds else report
