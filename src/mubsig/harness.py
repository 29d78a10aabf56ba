"""Monte Carlo trial running, exact reference distributions, and the
statistics used to compare the two.

Everything here is deterministic given the configured seed: rounds are
sampled block-wise from streams derived purely from (seed, block index),
so reports are byte-for-byte reproducible at any degree of parallelism.
"""

from __future__ import annotations

import enum
import numbers
import sys
from dataclasses import dataclass
from typing import Generator, Mapping

import numpy as np

from .bases import BasisId, Family, basis_alphabet
from .finite_field import PrimeDim
from .protocol import (
    _COLUMN_DTYPES,
    RoundLog,
    SessionReport,
    _INCONCLUSIVE_CODE,
    _decode_codes,
    _outcome_rows,
    _run_session,
    _total_variation,
    ideal_pretest_distribution,
    pair_outcome_labels,
    pair_outcome_probs,
)
from .quantum import _frozen
from .streams import derive_round_stream

__all__ = [
    "AnalyticDistribution",
    "EveMode",
    "HarnessConfig",
    "Protocol",
    "analytic_outcome_distribution",
    "calibrate_tv_threshold",
    "dual_family_detection_probability",
    "run_trials",
]


class Protocol(enum.Enum):
    ORIGINAL = "original"
    TOMOGRAPHIC = "tomographic"
    DUAL_FAMILY = "dualfamily"


class EveMode(enum.Enum):
    OFF = "off"
    INTERCEPT = "intercept"
    DUAL_FAMILY = "dualfamily"


_PROTOCOL_FAMILIES: dict[Protocol, tuple[Family, ...]] = {
    Protocol.ORIGINAL: (Family.PLAIN,),
    Protocol.TOMOGRAPHIC: (Family.PLAIN,),
    Protocol.DUAL_FAMILY: (Family.PLAIN, Family.HAT),
}


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
        for field, kind, _ in _CONFIG_KEYS.values():   # fractions: range-checked below
            value = getattr(self, field)
            if kind in (int, Protocol, EveMode) and (isinstance(value, bool)
                                                     or not isinstance(value, kind)):
                raise TypeError(f"{field} must be of type {kind.__name__}, got {value!r}")
        if not 1 <= self.rounds <= 2 ** 32:   # at most 131072 blocks per session
            raise ValueError("rounds must lie in [1, 2**32]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.eve is EveMode.INTERCEPT and self.protocol is Protocol.DUAL_FAMILY:
            raise ValueError("the intercept-resend strategy targets the "
                             "single-family protocols")
        if self.eve is EveMode.DUAL_FAMILY and self.protocol is not Protocol.DUAL_FAMILY:
            raise ValueError("the dual-family attack targets the dual-family protocol")
        need_pre = self.protocol is Protocol.TOMOGRAPHIC
        need_post = self.protocol in (Protocol.TOMOGRAPHIC, Protocol.DUAL_FAMILY)
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
        return basis_alphabet(self.d, _PROTOCOL_FAMILIES[self.protocol])

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
            if (isinstance(w, bool) or not isinstance(w, numbers.Real)
                    or not 0 <= w <= sys.float_info.max):
                raise ValueError(f"message weight for {label!r} must be a finite "
                                 f"number >= 0")
            weights[known[label]] = w
        return _checked_weights(weights, len(alphabet))


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
    probs = pair_outcome_probs(d, bob_basis.family, bob_basis)
    return AnalyticDistribution(pair_outcome_labels(d), probs)


# calibrate_tv_threshold takes this quantile of the statistic over this many
# undisturbed runs, times this margin.  It draws the runs a chunk at a time,
# from one stream, so it never holds more than a chunk of count vectors.
_CALIBRATION_RUNS = 4000
_CALIBRATION_QUANTILE = 0.999
_CALIBRATION_MARGIN = 1.5
_CALIBRATION_CHUNK = 64


def calibrate_tv_threshold(d: int, sample_size: int, seed: int) -> float:
    """Threshold for the pre-test statistic, calibrated by simulation.

    Draws undisturbed count vectors of ``sample_size`` pre-test rounds at
    dimension ``d``, takes a high quantile of their total-variation
    distances from the exact joint, and inflates it by a margin.  The
    margin keeps the false-alarm rate negligible across many repetitions
    while staying far below the order-one divergence an interception
    produces at small d.  Raises ``ValueError`` when the threshold is 1
    or more: no session's TV can exceed it, so the pre-test could never
    raise an alarm with that few rounds.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    ideal = ideal_pretest_distribution(d).ravel()
    rng = derive_round_stream(seed, 0)
    tvs = []
    for start in range(0, _CALIBRATION_RUNS, _CALIBRATION_CHUNK):
        size = min(_CALIBRATION_CHUNK, _CALIBRATION_RUNS - start)
        draws = rng.multinomial(sample_size, ideal, size=size)
        tvs.append(_total_variation(draws, sample_size, ideal))
    threshold = float(_CALIBRATION_MARGIN * np.quantile(np.concatenate(tvs),
                                                        _CALIBRATION_QUANTILE))
    if threshold >= 1.0:
        raise ValueError(f"the calibrated TV threshold at d={d}, sample_size={sample_size} "
                         f"is {threshold:.3f}, but a TV never exceeds 1, so the pre-test "
                         "could never raise an alarm; use more pre-test rounds")
    return threshold


def dual_family_detection_probability(d: int, eve_family: Family = Family.PLAIN,
                                      message_weights: np.ndarray | None = None,
                                      ) -> float:
    """Exact P(checked decode names the wrong basis | round survived sifting).

    Two contractions over the exact outcome rows, with the attacker
    running her substitution attack in ``eve_family``: her outcome for
    each of Bob's bases, folded into the row her resend leaves Alice with,
    and Alice's outcome, folded into the basis she decodes.  This is the
    quantity the dual-family session's ``detection_rate`` estimates.
    ``message_weights`` has one finite, nonnegative entry per basis of both
    families, in :func:`basis_alphabet` order, and a positive, finite sum.
    """
    if not isinstance(eve_family, Family):
        raise TypeError(f"eve_family must be a Family, got {eve_family!r}")
    probs = _outcome_rows(d, 2)
    per_family = d + 1
    n_bases = 2 * per_family
    weights = np.ones(n_bases) if message_weights is None else _checked_weights(
        message_weights, n_bases)
    codes = _decode_codes(d)
    bob_fam, bob_code = np.divmod(np.arange(n_bases), per_family)
    # Eve's outcome on her decoy, folded into the row her resend leaves
    # Alice with: 1 + the decoded basis, or the untouched row 0.
    eve = 0 if eve_family is Family.PLAIN else 1
    resend = np.where(codes == _INCONCLUSIVE_CODE, 0, 1 + eve * per_family + codes)
    to_row = probs[eve, 1:] @ (resend[:, None] == np.arange(n_bases + 1))
    # Alice's outcome, folded into the basis she decodes; she prepared
    # Bob's family (the rounds that survive sifting; her family coin is fair).
    decoded = probs[bob_fam] @ (codes[:, None] == np.arange(per_family))
    wrong = np.arange(per_family) != bob_code[:, None]
    p_kept = np.einsum("j,jr,jrc->", weights, to_row, decoded)
    p_mismatch = np.einsum("j,jr,jrc,jc->", weights, to_row, decoded, wrong)
    if p_kept <= 0.0:
        raise RuntimeError("attack left no sifted conclusive rounds")
    return float(p_mismatch / p_kept)


def _session(config: HarnessConfig, workers: int, collect: bool,
             ) -> Generator[RoundLog, None, SessionReport]:
    """The session of ``config`` as the engine runs it: with ``collect`` it
    yields its rounds as RoundLog pieces in round order, and it returns its
    report."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"workers must be of type int, got {workers!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return _run_session(
        config.d, config.rounds, config.seed,
        n_families=len(_PROTOCOL_FAMILIES[config.protocol]),
        eve=config.eve is not EveMode.OFF, message_weights=config.message_weights(),
        n_pre=config.pretest_rounds(), posttest_fraction=config.posttest_fraction,
        workers=workers, collect=collect)


def run_trials(config: HarnessConfig, *, workers: int = 1,
               return_rounds: bool = False,
               ) -> SessionReport | tuple[SessionReport, RoundLog]:
    """Run one session described by ``config``.

    Deterministic given ``config.seed``; ``workers`` only spreads the
    fixed blocks over threads and cannot change any reported value.
    With ``return_rounds=True`` also returns every round as a
    :class:`~mubsig.protocol.RoundLog`, in round order: its columns are
    made before the session runs and each piece is copied in as it
    arrives, so the log is the only copy of the rounds held.
    """
    session = _session(config, workers, return_rounds)
    log = _unfilled_log(config) if return_rounds else None
    filled = dict.fromkeys(_COLUMN_DTYPES, 0)
    while True:
        try:
            piece = next(session)
        except StopIteration as done:
            return (done.value, log) if return_rounds else done.value
        for name, start in filled.items():
            part = getattr(piece, name)
            if part is not None and part.size:
                getattr(log, name)[start:start + part.size] = part
                filled[name] += part.size


def _unfilled_log(config: HarnessConfig) -> RoundLog:
    """The RoundLog of ``config``'s session with every column allocated in
    its dtype and none written: one pre-test cell per pre-test round, and
    the signal columns per signal round."""
    n_pre = config.pretest_rounds()
    eve = config.eve is not EveMode.OFF

    def column(name: str) -> np.ndarray | None:
        if name == "eve_outcome" and not eve:
            return None
        return np.empty(n_pre if name == "pretest" else config.rounds - n_pre,
                        _COLUMN_DTYPES[name])

    return RoundLog(config.d, config.alphabet(), *map(column, _COLUMN_DTYPES))
