"""Round and session dynamics of the measurement-choice signalling protocols.

Bob encodes a message in which basis he measures; Alice reads it back by
measuring her entangled pair and decoding the joint outcome:

* original protocol: Alice prepares the plain (0,0;0) pair, Bob measures
  the travelling half in one of the d+1 plain bases;
* pre/post-tested variant: some rounds are sacrificed for a public
  tomography test of the shared state, and a fraction of the decoded
  signals is checked against Bob's record afterwards;
* dual-family variant: Alice prepares the plain or hat (0,0;0) pair at
  random, Bob signals with one of the 2(d+1) bases of both families, and
  rounds where preparation and measurement families differ are discarded.

Convention: the first tensor factor of the pair is the half that travels
(Bob and any interceptor measure subsystem 1); Alice keeps the second.
This orientation is what makes every conclusive outcome decode to Bob's
basis, and the decode-soundness checks pin it down.

Alice's reading of an outcome is one integer code, from the field
arithmetic of :func:`decode` on int arrays: -1 when inconclusive, 0 for
the computational basis and 1 + b for q_b.  The sessions, the
single-round oracle, the invariant suite and the CSV log all use these
codes.

Interception strategies for the eavesdropper are included for both the
original protocol (substitute pair, resend after decoding) and the
dual-family variant (the same attack mounted in one fixed family).

All three protocols run on one session engine, :func:`_run_session`,
which reads a :class:`~mubsig.harness.HarnessConfig`.  They share the
signalling round and differ only in the preparation alphabet (one
family, or plain and hat together) and in their checks (a tomography
pre-test, post-test checking with sifting).  Sessions sample rounds
from one exact inverse CDF of the outcome rows, which
:func:`_table_lookup` compiles, checks and keys once per dimension and
family count from the pure pair states.  Every draw is the top 53 bits
k of one raw 64-bit word of the block's stream, the integer behind the
uniform u = k/2^53.  Bob's message takes one exact inverse-CDF lookup,
:class:`_InverseCdf`, whose guide table answers almost every draw with
two gathers and one comparison, and a pre-test cell one split multiply,
one division and two gathers.  Only (0,0) is inconclusive, and every
other cell of a row that a counted round reads names Bob's basis (the
check refuses a table where it does not), so a block counts each
outcome from one comparison of its draw with its row's key.  Only the
dual-family attack's hat rounds decode cells, and a collected block
looks every outcome's cell up for its log.
Every block returns its counts as a dict, and a session sums them over
both its phases in one loop.  The per-round statistics remain
exactly those of the state-by-state simulation in :mod:`mubsig.oracle`,
which runs one round at a time on pure states and draws each outcome
with one uniform and one float inverse-CDF search.

Blocks are sampled into reused buffers, not fresh arrays, so a warm
session takes no page faults per block.  :func:`_run_blocks` owns them:
for one phase of one session it gives each worker thread one
:class:`_Scratch`, and drops it when the phase ends, so no buffer
outlives a session.  Each block writes its lookups, codes and masks
into its thread's set through ``out=``.  A collected block copies its
columns out of the set into a :class:`RoundLog` piece of its own, in the
narrow dtypes of ``_COLUMN_DTYPES``.  A session yields these pieces in
round order, sampled at most a few blocks ahead of its reader, so a
reader that writes each piece out holds only a few blocks of rounds;
:func:`_finish` copies them into one log instead.
The no-alias rule: a buffer is named, two values share a buffer only
when they share its name, and a value is written there only once the
one before it is dead; a lookup's ``out`` is never its rows or draws.
The only arrays still made per block are the stream's raw words, one
row per draw, each drawn where it is used and dead before the next,
and, in the dual-family attack, the index of its hat rounds.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Iterator

import numpy as np

from .bases import (
    BasisId,
    Family,
    _pair_amplitudes,
    basis_alphabet,
    hadamard_root,
    measurement_basis,
    pair_outcome_labels,
)
from .finite_field import MAX_DIM, per_dim_cache
from .quantum import TOLERANCE, _cdf, _frozen
from .streams import derive_round_stream

if TYPE_CHECKING:
    from .harness import HarnessConfig

# Rounds are processed in fixed-size blocks; each block draws from its own
# derived stream, so results do not depend on how blocks are scheduled.
BLOCK_ROUNDS = 1 << 15
_PRETEST_STREAM_BASE = 1 << 40

_INCONCLUSIVE_CODE = -1


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


@per_dim_cache
def _inverses(d: int) -> np.ndarray:
    """The read-only int64 table of a^-1 mod d for a = 1..d-1, with 0 at index 0."""
    return _frozen(np.array([0] + [pow(a, -1, d) for a in range(1, d)], dtype=np.int64))


def decode(d: int, prep: tuple, outcome: tuple) -> np.ndarray:
    """The code of Bob's basis, as Alice reads it off her outcome (c', r')
    of the preparation (c, r, s).

    The labels are ints or int arrays in 0..d-1 that broadcast together.
    c' != c names the quadratic basis q_b with b = s - (r - r') / (c - c')
    mod d, code 1 + b; c' = c with r' != r names the computational basis,
    code 0; reproducing (c, r) is inconclusive, code -1.  Within a family,
    the code of a basis is its index in :func:`basis_alphabet`.
    """
    c, r, s = (np.asarray(x, dtype=np.int64) for x in prep)
    cp, rp = (np.asarray(x, dtype=np.int64) for x in outcome)
    code = s - (r - rp) * _inverses(d)[(c - cp) % d]
    code %= d
    code += 1   # 1 + b, in place: decode-completeness runs this on d^4 cells per c
    return np.where(cp == c, np.where(rp == r, _INCONCLUSIVE_CODE, 0), code)


@dataclass(frozen=True)
class RoundLog:
    """Every round of one collected session, as the index arrays the engine sampled.

    Pre-test rounds come first, then signal rounds, each phase in block
    order.  ``pretest`` holds one cell per pre-test round: Bob's basis and
    outcome (b, m) and Alice's (a, m'), bases in :func:`basis_alphabet`
    order, as a flat C-order index over shape (d+1, d, d+1, d).  Per signal
    round, ``family`` is Alice's preparation family (0 plain, 1 hat),
    ``basis`` Bob's basis as an index into ``alphabet``, and ``outcome``
    Alice's pair outcome as an index into :func:`pair_outcome_labels`;
    ``eve_outcome`` is the eavesdropper's outcome on her plain decoy, in
    the same numbering, or None when nobody intercepts.

    Each column has the dtype ``_COLUMN_DTYPES`` gives it, the narrowest
    unsigned integer that holds its indices at ``MAX_DIM``: uint32 for
    ``pretest``, uint8 for ``family`` and uint16 for the others.  Widen a
    column before doing arithmetic on it.  A session that streams its
    rounds yields them as pieces, consecutive RoundLogs in round order.
    """

    d: int
    alphabet: tuple[BasisId, ...]
    pretest: np.ndarray
    family: np.ndarray
    basis: np.ndarray
    outcome: np.ndarray
    eve_outcome: np.ndarray | None

    def __len__(self) -> int:
        return self.pretest.size + self.basis.size


# The dtype of each RoundLog column, in field order: the narrowest unsigned
# integer that holds every index the column takes at MAX_DIM.  Pre-test cells
# number ((d + 1) d)^2, pair outcomes d^2, and the bases of both families 2(d + 1).
_COLUMN_DTYPES = {name: np.min_scalar_type(size - 1) for name, size in (
    ("pretest", ((MAX_DIM + 1) * MAX_DIM) ** 2),
    ("family", 2),
    ("basis", 2 * (MAX_DIM + 1)),
    ("outcome", MAX_DIM ** 2),
    ("eve_outcome", MAX_DIM ** 2))}


def _piece(d: int, alphabet: tuple[BasisId, ...], eve: bool, **columns: np.ndarray) -> RoundLog:
    """A RoundLog of ``columns``, each copied into its dtype; a column not
    given is empty, and ``eve_outcome`` is None without ``eve``."""
    def column(name: str) -> np.ndarray:
        return np.asarray(columns.get(name, ())).astype(_COLUMN_DTYPES[name])

    return RoundLog(d, alphabet, column("pretest"), column("family"), column("basis"),
                    column("outcome"), column("eve_outcome") if eve else None)


def _finish(config: HarnessConfig, session: Generator[RoundLog, None, SessionReport],
            ) -> tuple[SessionReport, RoundLog | None]:
    """Run ``session``, the session of ``config``, to its end: its report, and
    the pieces it yields copied into one RoundLog, or None if it yields none.
    The log takes its columns from the first piece and is the only copy held."""
    n_pre = config.pretest_rounds()
    log, filled = None, dict.fromkeys(_COLUMN_DTYPES, 0)
    while True:
        try:
            piece = next(session)
        except StopIteration as done:
            return done.value, log
        if log is None:
            log = RoundLog(piece.d, piece.alphabet, *(
                None if getattr(piece, name) is None
                else np.empty(n_pre if name == "pretest" else config.rounds - n_pre, dtype)
                for name, dtype in _COLUMN_DTYPES.items()))
        for name, start in filled.items():
            part = getattr(piece, name)
            if part is not None and part.size:
                getattr(log, name)[start:start + part.size] = part
                filled[name] += part.size


@dataclass(frozen=True)
class SessionReport:
    """Aggregate statistics of one session.

    ``sifted`` counts the signal-carrying rounds (conclusive, and
    family-matched for the dual-family protocol).  ``inconclusive_rate``
    is taken over the rounds Alice actually decoded (signal rounds;
    family-matched ones for dual-family).  ``decode_accuracy`` is over
    sifted rounds, ``detection_rate`` over the checked subset, and
    ``eve_information_rate`` over all signal rounds.  Ratios over an
    empty denominator report 0.0.
    The pre-test fields are None without a pre-test: ``pretest_correlated``
    counts its rounds on partner bases (:func:`_pretest_partners`),
    ``pretest_hits`` those where Alice read the partner outcome, and
    ``pretest_abort`` is ``pretest_hits < pretest_correlated``.
    """

    rounds: int
    sifted: int
    decode_accuracy: float
    inconclusive_rate: float
    detection_rate: float
    eve_information_rate: float
    pretest_correlated: int | None
    pretest_hits: int | None
    pretest_abort: bool | None
    seed: int


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Exact per-configuration outcome distributions.
# ---------------------------------------------------------------------------

@per_dim_cache
def _prep_pair(d: int, family: Family) -> np.ndarray:
    """The (0,0;0) pair of ``family`` as a d x d amplitude matrix, travelling
    index first: 1/sqrt(d) on n' = -n for the plain pair, and u Psi u^T,
    with u the hat transport h (the Hadamard root), for the hat pair."""
    if not isinstance(family, Family):
        raise TypeError(f"family must be a Family, got {type(family).__name__}")
    n = np.arange(d)
    psi = np.zeros((d, d), dtype=complex)
    psi[n, -n % d] = 1 / math.sqrt(d)
    if family is Family.HAT:
        u = hadamard_root(d)
        psi = u @ psi @ u.T
    return _frozen(psi)


@per_dim_cache
def pair_outcome_probs(d: int, own_family: Family, measured_basis: BasisId) -> np.ndarray:
    """Exact pair-outcome distribution after the travelling half is measured.

    The holder prepared the (0,0) pair Psi of ``own_family``, the
    travelling half was measured nonselectively in ``measured_basis``
    {b_m}, and the pair is then measured in the holder's own entangled
    basis {e_k}: p_k = sum_m |<e_k| b_m (x) phi_m>|^2 with
    phi_m = (<b_m| (x) 1) Psi.  Cells below ``TOLERANCE`` are exactly 0.0.
    Entries follow :func:`pair_outcome_labels` order.
    """
    b = measurement_basis(d, measured_basis)
    phi = b.conj().T @ _prep_pair(d, own_family)   # row m: phi_m
    amps = _pair_amplitudes(d, own_family, b.T[:, :, None] * phi[:, None, :])
    p = (np.abs(amps) ** 2).sum(axis=0)
    return _frozen(np.where(p < TOLERANCE, 0.0, p))


@per_dim_cache
def _decode_codes(d: int) -> np.ndarray:
    """:func:`decode` of every pair outcome, in :func:`pair_outcome_labels`
    order, for the preparation (0, 0, 0)."""
    return _frozen(decode(d, (0, 0, 0), np.array(pair_outcome_labels(d)).T))


_FAMILIES = (Family.PLAIN, Family.HAT)
_UNIT_BITS = 53
_UNIT = 1 << _UNIT_BITS   # Generator.random() returns k / 2**53 with integer k
_GUIDE_ENTRIES = 1 << 20   # most entries in one guide table


def _bucket_bits(rows: int, cells: int) -> int:
    """log2 of the guide buckets per row: the smallest power of two that
    is at least 8 * cells, lowered until the rows * buckets + 1 guide
    entries fit in ``_GUIDE_ENTRIES``."""
    wanted = (8 * cells - 1).bit_length()
    return min(wanted, ((_GUIDE_ENTRIES - 1) // rows).bit_length() - 1)


def _draws(stream: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform draws as the int64 k of u = k/2^53: for PCG64 streams,
    ``stream.random(n)`` is exactly these k over 2^53, in the same order."""
    raw = stream.bit_generator.random_raw(n)
    raw >>= 64 - _UNIT_BITS
    return raw.view(np.int64)


class _Scratch:
    """Block-sized buffers of one worker thread, reused by every block it samples.

    ``scratch(name, dtype, n)`` is the first ``n`` entries of the buffer
    called ``name``, made on first use.  The module docstring says who
    owns a set and which values may share a buffer.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, dtype: type, n: int) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = self._buffers[name] = np.empty(self.size, dtype=dtype)
        return buffer[:n]


@dataclass(frozen=True)
class _InverseCdf:
    """Exact inverse CDF of a stack of rows, by an indexed search.

    A draw is the integer k of u = k/2^53 (see :func:`_draws`).  Row r's
    CDF ``cum[r]`` becomes the in-row keys ceil(cum*2^53) - 1, and
    ``thresholds`` holds r*2^53 plus them, flattened in row order.  The
    in-row keys below k belong exactly to the cells with cum <= u, so
    their count is ``np.searchsorted(cum[r], u, side="right")``, and the
    thresholds below r*2^53 + k number that plus r*cells.  These keys fit
    in int64 for up to 1024 rows, which ``finite_field.MAX_DIM`` ensures.

    A guide table (Chen & Asau 1974, Devroye 1986 sec. III.2.4) splits
    each row into 2^bits buckets; draw k on row r falls in bucket
    ``g = (k >> (53 - bits)) + (r << bits)``.  ``start[g]`` counts the
    in-row keys below the bucket, and ``edge[g]`` is the in-row key
    inside it: 2^53 when it holds none, -1 when it holds two different
    ones.  So the cell is ``start[g + (k > edge[g])]``; a row's last key
    is 2^53 - 1, so ``g + 1`` never leaves the row.  Only draws in
    buckets with ``edge < 0`` search the thresholds, and ``searches``
    says whether there are any.  The guide decides how fast a draw is
    found, never which cell it finds.
    """

    cells: int
    bits: int
    thresholds: np.ndarray
    start: np.ndarray
    edge: np.ndarray
    searches: bool

    def __call__(self, rows: np.ndarray | int, k: np.ndarray, out: np.ndarray,
                 scratch: _Scratch) -> np.ndarray:
        """Cell index per draw ``k`` on row ``rows`` (int64 array, or the
        scalar 0 of a one-row lookup).

        The cells go to ``out`` (int64, ``k.size`` entries).  It holds the
        row offsets and edges first, so it must not alias ``rows`` or
        ``k``.  ``scratch`` lends the ``bucket`` and ``mask`` buffers."""
        n = k.size
        bucket = np.right_shift(k, _UNIT_BITS - self.bits, out=scratch("bucket", np.int64, n))
        if np.ndim(rows):   # the scalar row 0 adds nothing
            bucket += np.left_shift(rows, self.bits, out=out)
        edge = np.take(self.edge, bucket, out=out, mode="clip")
        mask = scratch("mask", bool, n)
        search = np.flatnonzero(np.less(edge, 0, out=mask)) if self.searches else ()
        bucket += np.greater(k, edge, out=mask)
        np.take(self.start, bucket, out=out, mode="clip")
        if len(search):
            row = np.broadcast_to(rows, k.shape)[search]
            out[search] = (np.searchsorted(self.thresholds, row * _UNIT + k[search])
                           - row * self.cells)
        return out


def _inverse_cdf(cum: np.ndarray) -> _InverseCdf:
    """The exact lookup for the CDF rows ``cum`` (last axis: cells).

    Every temporary has one entry per threshold; only ``start`` and
    ``edge`` (both int64, so a lookup gathers straight into its cells)
    have one per bucket."""
    cum = cum.reshape(-1, cum.shape[-1])
    rows, cells = cum.shape
    bits = _bucket_bits(rows, cells)
    keys = (np.ceil(cum * _UNIT).astype(np.int64) - 1).ravel()
    thresholds = np.repeat(np.arange(rows, dtype=np.int64) * _UNIT, cells) + keys
    bucket = thresholds >> (_UNIT_BITS - bits)   # a key of -1 falls below its row
    # threshold i is the first at or above every bucket in (bucket[i-1], bucket[i]]
    start = np.repeat(np.arange(thresholds.size + 1, dtype=np.int64),
                      np.diff(bucket, prepend=-1, append=rows << bits))[:-1]
    by_row = start.reshape(rows, -1)
    by_row -= np.arange(0, rows * cells, cells, dtype=np.int64)[:, None]
    inside = keys >= 0
    bucket, keys = bucket[inside], keys[inside]
    edge = np.full(rows << bits, _UNIT, dtype=np.int64)
    edge[bucket] = keys   # one of each bucket's keys, whichever write wins
    differs = keys != edge[bucket]
    edge[bucket[differs]] = -1
    return _InverseCdf(cells, bits, _frozen(thresholds), _frozen(start), _frozen(edge),
                       bool(differs.any()))


@per_dim_cache
def _table_lookup(d: int, n_families: int) -> tuple[_InverseCdf, np.ndarray]:
    """The exact inverse CDF of the outcome rows of one or both families,
    checked, and the key of each basis of Bob's on it.

    For the alphabet ``basis_alphabet(d, _FAMILIES[:n_families])``, row
    ``f * (1 + len(alphabet)) + 1 + j`` is Alice's pair-outcome
    distribution, :func:`pair_outcome_probs`, when she prepared the (0,0)
    pair of ``_FAMILIES[f]`` and the travelling half was measured in the
    j-th basis; row ``f * (1 + len(alphabet))`` is her untouched pair, all
    mass on (0,0).  The plain bases come first, so within a family the row
    of a plain basis is ``1 + code`` for its decode code, and the
    inconclusive code lands on the untouched row.  Only sessions draw from
    it, so the exact probabilities of :mod:`mubsig.harness` never build it.

    The keys, in alphabet order, are the in-row keys of cell 0, the (0,0)
    outcome, on each basis's own row: the basis measured on a pair of its
    own family.  A draw k lands past cell 0 of a row exactly when k exceeds
    its key (see :class:`_InverseCdf`), and a draw can reach cell j >= 1
    exactly when its key exceeds cell j-1's.  :func:`_signal_block` counts
    a draw past the key of Bob's basis as a correct decode and any other as
    inconclusive.  So (0,0) must be inconclusive, and each own row must
    decode every other cell a draw can reach to its basis; a table that
    breaks this raises ``RuntimeError``.
    """
    families = _FAMILIES[:n_families]
    alphabet = basis_alphabet(d, families)
    untouched = np.eye(1, d * d)[0]
    lookup = _inverse_cdf(_cdf(np.array(
        [[untouched] + [pair_outcome_probs(d, f, b) for b in alphabet] for f in families])))
    codes, cells = _decode_codes(d), lookup.cells
    basis = np.arange(len(alphabet))
    family = basis // (d + 1)
    rows = family * (1 + basis.size) + 1 + basis
    wanted = (basis - family * (d + 1)).tolist()
    for row, code in zip(rows.tolist(), wanted):   # one row at a time: d^2 keys each
        reached = np.diff(lookup.thresholds[row * cells:(row + 1) * cells]) > 0
        if codes[0] != _INCONCLUSIVE_CODE or (codes[1:][reached] != code).any():
            raise RuntimeError(f"row {row} of the d={d} outcome table does not decode "
                               "as its key counts")
    return lookup, _frozen(lookup.thresholds[rows * cells] - rows * _UNIT)


# ---------------------------------------------------------------------------
# The public tomography pre-test.
# ---------------------------------------------------------------------------

@per_dim_cache
def _pretest_partners(d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each (b, m) of Bob's, numbered x = b d + m, the first pre-test
    cell (b, m, a, 0) of his partner basis a and his partner cell
    (b, m, a, m'): once Bob reads m in b, Alice's half of the (0,0;0) pair
    is the m'-th ket of her basis a.  That is comp at -m for comp, and
    q_(-b) at m for q_b, or at m + b for d = 2, where the phase unit i has
    period 4; in her other bases she reads m' uniformly.  Cells are flat
    C-order indices over shape (d+1, d, d+1, d), bases in
    :func:`basis_alphabet` order; both arrays are read-only int64."""
    b, m, side = np.arange(d)[:, None], np.arange(d), (d + 1) * d
    quad = -b % d * d + (m + b * (d == 2)) % d   # q_b -> q_(-b) at m (+ b)
    target = np.arange(0, side * side, side) + np.concatenate([[-m % d], d + quad]).ravel()
    return _frozen(target - target % d), _frozen(target)


# ---------------------------------------------------------------------------
# Sessions: block-wise exact-table sampling.
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(worker: Callable[[np.random.Generator, int, _Scratch], object],
                total: int, seed: int, stream_base: int, workers: int) -> Iterator:
    """``worker(stream, n, scratch)`` on every block of ``total`` rounds, its
    results yielded in block order.

    Of ``w`` threads, the reading thread samples every w-th block itself
    and a pool of ``w - 1`` samples the others, at most ``2 w`` blocks
    ahead of the reader.  (A reader that only waited for ``w`` pool
    threads made ``workers=2`` sessions 10-15 % slower on 2 CPUs: three
    threads took turns at the GIL.)  Each thread samples into one
    :class:`_Scratch` of its own, made on its first block and dropped
    with this generator, so no buffer outlives it.
    """
    starts = range(0, total, BLOCK_ROUNDS)
    workers = min(workers, len(starts), _usable_cpus())
    lane = threading.local()

    def block(j: int) -> object:
        if not hasattr(lane, "scratch"):
            lane.scratch = _Scratch(min(total, BLOCK_ROUNDS))
        return worker(derive_round_stream(seed, stream_base + j),
                      min(BLOCK_ROUNDS, total - starts[j]), lane.scratch)

    if workers <= 1:
        yield from map(block, range(len(starts)))
        return
    from concurrent.futures import ThreadPoolExecutor   # one-thread runs never load it

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        ahead = {k: pool.submit(block, k) for k in range(min(len(starts), 2 * workers))
                 if k % workers}
        for j in range(len(starts)):
            k = j + 2 * workers
            if k < len(starts) and k % workers:
                ahead[k] = pool.submit(block, k)
            yield ahead.pop(j).result() if j % workers else block(j)


def _signal_block(alphabet: tuple[BasisId, ...], lookup: _InverseCdf, keys: np.ndarray, d: int,
                  eve: bool, message: _InverseCdf, posttest_fraction: float | None,
                  collect: bool, stream: np.random.Generator, n: int, scratch: _Scratch,
                  ) -> tuple[dict[str, int], RoundLog | None]:
    """Sample ``n`` signal rounds from one block stream: their counts, and
    with ``collect`` the rounds as a :class:`RoundLog` piece.

    The counts are the family-matched rounds (all, for one family), the
    ``kept`` ones among them that are conclusive, the ``correct`` kept
    decodes, the ``checked`` kept rounds with their ``mismatches``, and,
    when Eve intercepts, her ``eve_correct`` decodes.

    Draw order: Alice's family coin (two families only), Bob's message,
    the first outcome (Alice's, or Eve's when she intercepts), Alice's
    outcome after Eve's resend, and the post-test coin (unless every
    conclusive round is checked), each a row of ``n`` raw words drawn
    where it is used, so a block holds one row of words at a time.  Eve's
    decoy pair is plain.  ``lookup`` and ``keys`` are the checked table
    and keys of ``_table_lookup(d, n_families)``.

    Bob's message takes one guide-table lookup, and a draw past the key of
    his basis is a conclusive, correct read: Eve's of a plain message, and
    Alice's on a matched pair.  Only the dual-family attack's hat rounds,
    a hat message on Alice's hat pair, decode cells: Eve's read of a hat
    basis on her plain decoy, and Alice's of the plain basis Eve resends.
    They look these up for their subset alone, or, collected, gather
    Alice's from the cells the block looks up for its piece.
    """
    n_bases, codes = len(alphabet), _decode_codes(d)
    # integer coins: k >= 2^52 is u >= 1/2 (hat), and k < ceil(f*2^53) is u < f
    hat = same = cross = None
    if n_bases > d + 1:
        hat = np.greater_equal(_draws(stream, n), _UNIT >> 1, out=scratch("hat", bool, n))
    b_idx = message(0, _draws(stream, n), scratch("basis", np.int64, n), scratch)
    key = np.take(keys, b_idx, out=scratch("key", np.int64, n), mode="clip")
    if hat is not None:
        bob_hat = np.greater(b_idx, d, out=scratch("bob_hat", bool, n))
        same = np.equal(bob_hat, hat, out=scratch("same", bool, n))
        if eve:   # a hat message on Alice's hat pair: these rounds decode cells
            cross = np.flatnonzero(np.logical_and(bob_hat, hat, out=scratch("cross", bool, n)))
            m = cross.size
            cross_basis = np.take(b_idx, cross, out=scratch("cross_basis", np.int64, m),
                                  mode="clip")

            def cross_cells(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
                """The cells that these rounds' draws among ``k`` read on ``rows``."""
                return lookup(rows, np.take(k, cross, out=scratch("cross_draw", np.int64, m),
                                            mode="clip"), scratch("cross_cell", np.int64, m),
                              scratch)
    if collect:
        row = np.add(b_idx, 1, out=scratch("row", np.int64, n))
    if eve:   # she resends in the plain basis she decoded, or the untouched pair
        k = _draws(stream, n)
        eve_read = np.greater(k, key, out=scratch("eve_read", bool, n))
        if collect:
            eve_idx = lookup(row, k, scratch("eve_outcome", np.int64, n), scratch)
            np.add(np.take(codes, eve_idx, out=row, mode="clip"), 1, out=row)
        elif cross is not None:
            cross_row = np.add(cross_basis, 1, out=scratch("cross_row", np.int64, m))
            np.take(codes, cross_cells(cross_row, k), out=cross_row, mode="clip")
            cross_row += 2 + n_bases   # the hat pair's row of the basis Eve resends
        if hat is not None:   # her plain decoy never names a hat message
            np.greater(eve_read, bob_hat, out=eve_read)
        del k   # dead before the next row is drawn
    k = _draws(stream, n)
    kept = np.greater(k, key, out=scratch("kept", bool, n))
    if collect:
        if hat is not None:   # the hat pair's rows follow the plain pair's
            row += np.multiply(hat, 1 + n_bases, out=scratch("offset", np.int64, n))
        out_idx = lookup(row, k, scratch("outcome", np.int64, n), scratch)
    if eve:
        kept &= eve_read
    if hat is not None:
        kept &= same
    hit = kept
    if cross is not None:
        cell = (np.take(out_idx, cross, out=scratch("cross_cell", np.int64, m), mode="clip")
                if collect else cross_cells(cross_row, k))
        # Alice's codes take the buffer of her rows, which are spent
        code = np.take(codes, cell, out=scratch("cross_row", np.int64, m), mode="clip")
        mask = scratch("cross_mask", bool, m)
        np.put(kept, cross, np.not_equal(code, _INCONCLUSIVE_CODE, out=mask), mode="clip")
        hit = scratch("hit", bool, n)
        np.copyto(hit, kept)
        code += d + 1   # in Bob's numbering, where the hat bases follow the plain ones
        np.put(hit, cross, np.equal(code, cross_basis, out=mask), mode="clip")
    del k
    counts = {"matched": n if same is None else int(np.count_nonzero(same)),
              "kept": int(np.count_nonzero(kept)), "correct": int(np.count_nonzero(hit))}
    if posttest_fraction is None:
        counts["checked"] = counts["kept"]
        counts["mismatches"] = counts["kept"] - counts["correct"]
    else:
        checked = np.less(_draws(stream, n), math.ceil(posttest_fraction * _UNIT),
                          out=scratch("checked", bool, n))
        checked &= kept
        counts["checked"] = int(np.count_nonzero(checked))
        checked &= hit
        counts["mismatches"] = counts["checked"] - int(np.count_nonzero(checked))
    if eve:
        counts["eve_correct"] = int(np.count_nonzero(eve_read))
    if not collect:
        return counts, None
    return counts, _piece(d, alphabet, eve, family=np.zeros(n, bool) if hat is None else hat,
                          basis=b_idx, outcome=out_idx, eve_outcome=eve_idx if eve else ())


def _scaled(k: np.ndarray, size: int, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """floor(k * size / 2^53) of the draws k into ``out``, exactly for ``size``
    < 2^32: the high 27 and the low 26 bits of k, times ``size``, fit in int64."""
    np.bitwise_and(k, (1 << 26) - 1, out=spare)
    spare *= size
    spare >>= 26
    np.right_shift(k, 26, out=out)
    out *= size
    out += spare
    out >>= _UNIT_BITS - 26
    return out


def _pretest_block(alphabet: tuple[BasisId, ...], eve: bool, collect: bool, first: np.ndarray,
                   target: np.ndarray, stream: np.random.Generator, n: int, scratch: _Scratch,
                   ) -> tuple[dict[str, int], RoundLog | None]:
    """Sample ``n`` pre-test rounds from one row of raw words: their counts,
    the ``correlated`` rounds on partner bases and the ``hits`` among them,
    and with ``collect`` a :class:`RoundLog` piece.

    Draw k reads cell floor(k N / 2^53) of the N = s^2 cells, s = (d+1) d,
    and x = cell // s is its (b, m), floor(k s / 2^53) exactly, since
    floor(floor(y) / s) = floor(y / s) for a positive integer s.  Uniform
    cells are the attacked joint, where both halves are maximally mixed;
    without Eve, Alice's outcome on partner bases becomes the partner
    outcome.
    ``first`` and ``target`` are the tables of :func:`_pretest_partners`."""
    d, side = len(alphabet) - 1, first.size
    k = _draws(stream, n)
    cell = _scaled(k, side * side, scratch("cell", np.int64, n), scratch("row", np.int64, n))
    x = np.floor_divide(cell, side, out=scratch("x", np.int64, n))
    offset = np.take(first, x, out=k, mode="clip")   # the draws are spent
    np.subtract(cell, offset, out=offset)
    correlated = np.less(offset.view(np.uint64), d, out=scratch("mask", bool, n))
    hit = np.take(target, x, out=scratch("row", np.int64, n), mode="clip")
    if not eve:   # cell += hit - cell on partner rounds; a masked copy took twice as long
        cell += np.multiply(np.subtract(hit, cell, out=offset), correlated, out=offset)
    hits = np.count_nonzero(np.equal(cell, hit, out=scratch("hit", bool, n)))
    counts = {"correlated": int(np.count_nonzero(correlated)), "hits": int(hits)}
    return counts, _piece(d, alphabet, eve, pretest=cell) if collect else None


def _run_session(config: HarnessConfig, workers: int, collect: bool,
                 ) -> Generator[RoundLog, None, SessionReport]:
    """Run the session of ``config``, which names everything the engine
    reads, on ``workers`` threads; the generator's return value is its report.

    The first ``config.pretest_rounds()`` rounds are spent on tomography
    before signalling (see :class:`SessionReport` for its fields).  Both
    phases run in one loop, which sums every block's counts into one
    Counter, where a count no block of the session made reads 0.  With
    ``posttest_fraction=None`` every conclusive decode is checked against
    Bob's record (a supervisor's view; the original protocol itself has
    no verification step).  With ``collect`` the session yields its
    rounds, one :class:`RoundLog` piece per block, in round order;
    without, it yields nothing.  The callers check that ``workers`` is an
    int >= 1; it never changes a result.
    """
    d, rounds, seed = config.d, config.rounds, config.seed
    alphabet = config.alphabet()
    eve = config.eve is not EveMode.OFF
    n_pre = config.pretest_rounds()
    weights = config.message_weights()
    message = _inverse_cdf(_cdf(weights / weights.sum()))
    n_families = len(_PROTOCOL_FAMILIES[config.protocol])
    pretest = functools.partial(_pretest_block, alphabet, eve, collect, *_pretest_partners(d))
    signal = functools.partial(_signal_block, alphabet, *_table_lookup(d, n_families), d, eve,
                               message, config.posttest_fraction, collect)
    counts = Counter()   # an empty pre-test runs no block
    for worker, total, stream_base in ((pretest, n_pre, _PRETEST_STREAM_BASE),
                                       (signal, rounds - n_pre, 0)):
        for block_counts, piece in _run_blocks(worker, total, seed, stream_base, workers):
            counts.update(block_counts)
            if piece is not None:
                yield piece
    correlated, hits = (counts["correlated"], counts["hits"]) if n_pre else (None, None)
    return SessionReport(
        rounds=rounds, sifted=counts["kept"],
        decode_accuracy=_ratio(counts["correct"], counts["kept"]),
        inconclusive_rate=_ratio(counts["matched"] - counts["kept"], counts["matched"]),
        detection_rate=_ratio(counts["mismatches"], counts["checked"]),
        eve_information_rate=_ratio(counts["eve_correct"], rounds - n_pre),
        pretest_correlated=correlated, pretest_hits=hits,
        pretest_abort=None if hits is None else hits < correlated, seed=seed)
