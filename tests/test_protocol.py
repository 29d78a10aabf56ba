import concurrent.futures
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mubsig import oracle, protocol
from mubsig.bases import (
    BasisId,
    Family,
    basis_alphabet,
    measurement_basis,
    pair_outcome_labels,
)
from mubsig.harness import EveMode, HarnessConfig, Protocol, run_trials
from mubsig.oracle import (
    RoundRecord,
    run_round,
)
from mubsig.finite_field import MAX_DIM
from mubsig.protocol import (
    BLOCK_ROUNDS,
    RoundLog,
    decode,
    pair_outcome_probs,
)
from mubsig.quantum import TOLERANCE, _cdf
from mubsig.streams import derive_round_stream
from dense import (
    basis_code,
    born_probabilities,
    decode_oracle,
    density,
    entangled_basis,
    nonselective_measure,
    partial_trace,
    pretest_joint,
    pretest_loop,
    sample_outcome,
    total_variation,
)

# ---------------------------------------------------------------------------
# Decode rule
# ---------------------------------------------------------------------------

def test_decode_matches_oracle_exhaustively():
    """One call of decode on the whole (c, r, s, c', r') grid, against the
    plain-integer oracle cell by cell; the engine's code table is the
    (0, 0, 0) slice."""
    for d in (2, 3, 5, 7):
        grid = np.indices((d,) * 5)
        got = decode(d, grid[:3], grid[3:])
        assert got.dtype == np.int64
        assert_array_equal(got, np.vectorize(decode_oracle)(d, *grid))
        assert_array_equal(protocol._decode_codes(d), got[0, 0, 0].ravel())
    assert decode(3, (0, 0, 0), (1, 2)).ndim == 0


def test_decode_result_matches_label():
    """A code names a basis label, its family aside: it is the basis's index
    within its family's alphabet, and Eve resends in that basis."""
    for d in (2, 3, 5):
        for j, basis in enumerate(basis_alphabet(d, (Family.PLAIN, Family.HAT))):
            code = j % (d + 1)
            assert code == basis_code(basis)
            assert oracle._forward_basis(basis.family, code) == basis
        assert oracle._forward_basis(Family.HAT, -1) is None


def test_round_record_consistency():
    comp = BasisId(Family.PLAIN, None)
    ok = RoundRecord(comp, Family.PLAIN, (0, 1), 0)
    assert ok.sifted and not ok.eve_active
    with pytest.raises(ValueError):
        RoundRecord(comp, Family.PLAIN, (0, 1), 0, eve_outcome=(0, 0))
    with pytest.raises(ValueError):
        RoundRecord(comp, Family.PLAIN, (0, 1), 0, eve_decode=0)
    with pytest.raises(ValueError):
        RoundRecord(comp, Family.PLAIN, (0, 1), 0, eve_forward_basis=comp)
    assert RoundRecord(comp, Family.PLAIN, (0, 1), 0, (0, 0), -1).eve_active
    hat_round = RoundRecord(BasisId(Family.HAT, 0), Family.PLAIN, (0, 0), -1)
    assert not hat_round.sifted


# ---------------------------------------------------------------------------
# Exact pair-outcome distributions. An independent derivation: measuring
# the travelling half in basis b leaves the pair diagonal in the holder's
# entangled basis with support {(c, -b c)} for quadratic b and {(0, r)}
# for the computational basis, each outcome carrying weight 1/d.
# ---------------------------------------------------------------------------

def expected_support(d, basis):
    if basis.quad is None:
        return {(0, r) for r in range(d)}
    return {(c, (-basis.quad * c) % d) for c in range(d)}


def test_pair_outcome_supports_matched_families():
    for d in (2, 3, 5):
        labels = pair_outcome_labels(d)
        for family in (Family.PLAIN, Family.HAT):
            for basis in basis_alphabet(d, (family,)):
                probs = pair_outcome_probs(d, family, basis)
                support = expected_support(d, basis)
                for label, p in zip(labels, probs):
                    target = 1.0 / d if label in support else 0.0
                    assert abs(p - target) < 1e-10, (d, family, basis, label)


def test_pair_outcome_inconclusive_weight():
    for d in (2, 3, 5):
        for family in (Family.PLAIN, Family.HAT):
            for basis in basis_alphabet(d, (family,)):
                probs = pair_outcome_probs(d, family, basis)
                assert abs(probs[0] - 1.0 / d) < 1e-10  # label (0, 0)


def test_pair_outcome_cross_family_normalized_and_spread():
    """Measuring in the wrong family never reproduces the clean support."""
    for d in (2, 3):
        labels = pair_outcome_labels(d)
        for basis in basis_alphabet(d):
            probs = pair_outcome_probs(d, Family.HAT, basis)
            assert abs(probs.sum() - 1.0) < 1e-10
            off_support = [p for label, p in zip(labels, probs)
                           if label not in expected_support(d, basis)]
            assert max(off_support) > 1e-6


def test_pair_outcome_probs_cached():
    b = BasisId(Family.PLAIN, 0)
    assert pair_outcome_probs(3, Family.PLAIN, b) is pair_outcome_probs(3, Family.PLAIN, b)


def test_a_cold_d31_table_compile_keeps_no_dense_pair_basis(fresh_caches):
    """The rows read the pair basis off its structure, so compiling both
    families' tables at d=31 keeps their tables and lookup only: well under
    the 29.6 MB that the two dense d^2 x d^2 pair bases alone took."""
    protocol._table_lookup(3, 2)   # numpy's own first-call allocations
    tracemalloc.start()
    try:
        protocol._table_lookup(31, 2)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 20e6, retained


def _table_rows(d, n_families):
    """The rows of ``protocol._table_lookup(d, n_families)``, stacked in its
    numbering: per family, the untouched pair (all mass on (0,0)), then one
    :func:`pair_outcome_probs` row per basis of the alphabet."""
    families = protocol._FAMILIES[:n_families]
    untouched = np.eye(1, d * d)[0]
    return np.array([[untouched] + [pair_outcome_probs(d, f, b)
                                    for b in basis_alphabet(d, families)] for f in families])


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_tables_match_dense_derivation(d):
    """Every row of the exact array against the density-matrix derivation."""
    probs = _table_rows(d, 2)
    alphabet = basis_alphabet(d, (Family.PLAIN, Family.HAT))
    assert len(alphabet) == 2 * (d + 1)
    assert probs.shape == (2, 1 + len(alphabet), d * d)
    for f, family in enumerate((Family.PLAIN, Family.HAT)):
        prep = density(entangled_basis(d, 0, family)[:, 0])
        untouched = probs[f, 0]
        assert untouched[0] == 1.0 and not untouched[1:].any()
        for j, basis in enumerate(alphabet):
            dense = born_probabilities(
                nonselective_measure(prep, 1, measurement_basis(d, basis)),
                entangled_basis(d, 0, family))
            row = probs[f, 1 + j]
            assert_array_equal(row, pair_outcome_probs(d, family, basis))
            assert_allclose(row, dense, rtol=0, atol=1e-14, err_msg=f"{family} {basis}")
            assert (row[dense < 1e-12] == 0.0).all(), (family, basis)


# ---------------------------------------------------------------------------
# Single rounds (full state-vector path)
# ---------------------------------------------------------------------------

def test_round_original_conclusive_decodes_match_bob():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for basis in basis_alphabet(d):
            for _ in range(40):
                rec = run_round(d, Family.PLAIN, basis, rng)
                assert not rec.eve_active
                if rec.alice_decode >= 0:
                    assert rec.alice_decode == basis_code(basis)


def test_round_original_inconclusive_rate():
    rng = np.random.default_rng(7)
    d, n = 2, 2000
    hits = sum(
        run_round(d, Family.PLAIN, BasisId(Family.PLAIN, 0), rng).alice_decode < 0
        for _ in range(n))
    p = 1.0 / d
    assert abs(hits - n * p) < 5 * np.sqrt(n * p * (1 - p))


def test_eve_inconclusive_leaves_pair_untouched():
    """When Eve cannot decode she sends the qudit back unmeasured, and
    Alice's pair is still in its preparation state: outcome (0,0) exactly."""
    rng = np.random.default_rng(3)
    d = 2
    saw_branch = 0
    for _ in range(200):
        rec = run_round(d, Family.PLAIN, BasisId(Family.PLAIN, 1), rng,
                        eve_family=Family.PLAIN)
        assert rec.eve_active
        if rec.eve_decode < 0:
            saw_branch += 1
            assert rec.eve_forward_basis is None
            assert rec.alice_outcome == (0, 0)
            assert rec.alice_decode < 0
        else:
            assert rec.eve_forward_basis is not None
            assert rec.eve_decode == basis_code(rec.eve_forward_basis)
    assert saw_branch > 10


def test_eve_conclusive_decodes_match_bob():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for basis in basis_alphabet(d):
            for _ in range(30):
                rec = run_round(d, Family.PLAIN, basis, rng, eve_family=Family.PLAIN)
                if rec.eve_decode >= 0:
                    assert rec.eve_decode == basis_code(basis)


def test_dual_round_record_structure():
    rng = np.random.default_rng(9)
    rec = run_round(3, Family.HAT, BasisId(Family.HAT, 1), rng)
    assert rec.alice_prep_family is Family.HAT
    assert rec.sifted
    rec = run_round(3, Family.PLAIN, BasisId(Family.HAT, 1), rng,
                    eve_family=Family.PLAIN)
    assert rec.eve_active
    assert not rec.sifted


def test_round_vs_table_distribution():
    """The state-by-state round sampler and the compiled probability table
    must describe the same experiment (5 sigma per outcome cell)."""
    rng = np.random.default_rng(17)
    d, n = 2, 4000
    basis = BasisId(Family.PLAIN, 1)
    labels = pair_outcome_labels(d)
    counts = {label: 0 for label in labels}
    for _ in range(n):
        counts[run_round(d, Family.PLAIN, basis, rng).alice_outcome] += 1
    probs = pair_outcome_probs(d, Family.PLAIN, basis)
    for label, p in zip(labels, probs):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[label] - n * p) <= 5 * sigma + 1


# ---------------------------------------------------------------------------
# Pre-test reference distribution
# ---------------------------------------------------------------------------

def test_pretest_distribution_is_the_dense_loop_read_only():
    for d in (2, 3, 5, 7, 11, 13):
        probs = pretest_joint(d)
        assert probs.shape == (d + 1, d, d + 1, d)
        assert not probs.flags.writeable
        assert_array_equal(probs.ravel(), pretest_loop(d))


def test_pretest_distribution_normalized_with_uniform_marginals():
    for d in (2, 3):
        probs = pretest_joint(d)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert_allclose(probs.sum(axis=(2, 3)), 1.0 / ((d + 1) * d), rtol=0, atol=1e-10)


def test_pretest_distribution_computational_anticorrelation():
    """Both sides reading the computational basis see m' = -m exactly."""
    for d in (2, 3, 5):
        comp = basis_alphabet(d).index(BasisId(Family.PLAIN, None))
        m = np.arange(d)
        expected = np.where(m[:, None] == (-m) % d, 1.0 / ((d + 1) ** 2 * d), 0.0)
        assert_allclose(pretest_joint(d)[comp, :, comp, :], expected,
                        rtol=0, atol=1e-12)


def dense_eve_pretest_probs(d):
    """Reduced states of the decoy pair, then Born probabilities per basis pair."""
    decoy = density(entangled_basis(d)[:, 0])
    bob_side = partial_trace(decoy, keep=1)
    alice_side = partial_trace(decoy, keep=2)
    alphabet = basis_alphabet(d)
    pm = np.array([born_probabilities(bob_side, measurement_basis(d, b)) for b in alphabet])
    pa = np.array([born_probabilities(alice_side, measurement_basis(d, a)) for a in alphabet])
    return pm[:, :, None, None] * pa[None, None] / len(alphabet) ** 2


def test_eve_pretest_probs_match_dense_derivation():
    """Under the substitution attack every pre-test cell has probability
    1/((d+1) d)^2, the uniform joint an attacked pre-test block draws from."""
    for d in (2, 3, 5):
        dense = dense_eve_pretest_probs(d)
        assert dense.shape == (d + 1, d, d + 1, d)
        assert_allclose(dense, 1 / ((d + 1) * d) ** 2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_pretest_partners_are_the_correlated_cells_of_the_joint(d):
    """Each (b, m) of Bob's has one partner basis a of Alice's where the
    undisturbed joint puts all of its mass on one m', and every other
    (b, a) is uniform, in both the dense joint and the sampler's tables."""
    side = (d + 1) * d
    joint = pretest_joint(d).reshape(side, d + 1, d)
    first, target = protocol._pretest_partners(d)
    for table in (first, target):
        assert table.shape == (side,) and not table.flags.writeable
    x, y = np.divmod(target, side)
    a, mp = np.divmod(y, d)
    assert_array_equal(x, np.arange(side))
    assert_array_equal(first, target - mp)
    assert_allclose(joint[x, a, mp], 1 / ((d + 1) ** 2 * d), rtol=0, atol=1e-15)
    assert (a.reshape(d + 1, d) == a[::d, None]).all()   # one a per b
    assert sorted(a[::d]) == list(range(d + 1))   # and every a is some b's partner
    uniform = np.ones(joint.shape, bool)
    uniform[x, a] = False
    assert_allclose(joint[uniform], 1 / ((d + 1) * d) ** 2, rtol=0, atol=1e-15)


def test_the_total_variation_between_the_joints_shrinks_like_1_over_d():
    """The exact TV between the undisturbed and the attacked joint is
    (d - 1) / (d (d + 1)): all of it sits on the partner pairs, a 1/(d+1)
    share of the rounds.  The statistic the pre-test once thresholded lost
    its power as d grew; the partner counts keep a factor 1/d per round."""
    for d in (2, 3, 5, 7, 11, 13):
        cells = ((d + 1) * d) ** 2
        tv = total_variation(pretest_joint(d).ravel(), 1, np.full(cells, 1 / cells))
        assert abs(tv - (d - 1) / (d * (d + 1))) < 1e-12, d


class _RawWords:
    """A stand-in block stream that serves the draws ``k``, each as a raw
    word with the low 11 bits set, bits the engine must drop."""

    def __init__(self, k):
        self.bit_generator = self
        self.words = (np.asarray(k, dtype=np.uint64) << np.uint64(11)) | np.uint64(0x7FF)

    def random_raw(self, n):
        assert n == self.words.size
        return self.words.copy()


def _pretest_block(d, eve, k):
    """One collected pre-test block of the draws ``k``, on the session's
    tables: (its counts, cells)."""
    counts, piece = protocol._pretest_block(
        basis_alphabet(d), eve, True, *protocol._pretest_partners(d), _RawWords(k), len(k),
        protocol._Scratch(len(k)))
    return counts, piece.pretest.astype(np.int64)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_pretest_cells_are_the_exact_joint(d):
    """Draw k reads the cell floor(k N / 2^53) of the N cells: the block
    reads exactly that on both sides of every cell's least k, and at 0 and
    2^53 - 1.  So the k in [0, 2^53) that read cell c number
    least(c + 1) - least(c), and with Alice's outcome on partner bases set
    to the partner outcome they make the undisturbed joint within 1e-15,
    with the same zero cells.  The attacked joint is uniform within 2^-53."""
    side = (d + 1) * d
    cells = side * side
    least = [-(-c * 2 ** 53 // cells) for c in range(cells + 1)]   # Python ints, exact
    k = np.array(least[1:-1], dtype=np.int64)
    k = np.concatenate([k - 1, k, [0, 2 ** 53 - 1]])
    read = np.concatenate([np.arange(cells - 1), np.arange(1, cells), [0, cells - 1]])
    # the undisturbed reading: Alice's m' moves to the partner outcome on partner pairs
    target = protocol._pretest_partners(d)[1][np.arange(cells) // side]
    on_partner = np.arange(cells) // d == target // d
    moved = np.where(on_partner, target, np.arange(cells))
    for eve, expected in ((True, read), (False, moved[read])):
        counts, got = _pretest_block(d, eve, k)
        assert_array_equal(got, expected)
        assert counts["correlated"] == on_partner[read].sum()
        assert counts["hits"] == (expected == target[read]).sum()
    count = np.diff(np.array(least, dtype=np.int64))
    assert count.sum() == 2 ** 53 and count.max() - count.min() <= 1
    attacked = count / 2 ** 53
    assert np.abs(attacked - 1 / cells).max() <= 2 ** -53
    honest = np.bincount(moved, weights=count, minlength=cells) / 2 ** 53
    joint = pretest_joint(d).ravel()
    assert np.abs(honest - joint).max() <= 1e-15
    assert_array_equal(honest == 0, joint < TOLERANCE)


# ---------------------------------------------------------------------------
# Sessions: reports must be exact functions of their round logs.
# ---------------------------------------------------------------------------

def recompute_original(rounds):
    kept = [r for r in rounds if r.alice_decode >= 0]
    correct = [r for r in kept if r.alice_decode == basis_code(r.bob_basis)]
    eve_correct = [r for r in rounds if r.eve_decode == basis_code(r.bob_basis)]
    return len(kept), len(correct), len(eve_correct)


def original(d, rounds, seed, eve=EveMode.OFF, **kw):
    return HarnessConfig(d=d, protocol=Protocol.ORIGINAL, rounds=rounds, seed=seed,
                         eve=eve, **kw)


def dual(d, rounds, seed, eve=EveMode.OFF, posttest_fraction=0.5, **kw):
    return HarnessConfig(d=d, protocol=Protocol.DUAL_FAMILY, rounds=rounds, seed=seed,
                         eve=eve, posttest_fraction=posttest_fraction, **kw)


def tomographic(d, rounds, seed, eve=EveMode.OFF, pretest_fraction=0.2,
                posttest_fraction=0.5, **kw):
    return HarnessConfig(d=d, protocol=Protocol.TOMOGRAPHIC, rounds=rounds, seed=seed,
                         eve=eve, pretest_fraction=pretest_fraction,
                         posttest_fraction=posttest_fraction, **kw)


def test_original_session_report_matches_records(signal_rounds):
    for eve in (EveMode.OFF, EveMode.INTERCEPT):
        report, log = run_trials(original(2, 600, seed=21, eve=eve), return_rounds=True)
        assert len(log) == 600
        kept, correct, eve_correct = recompute_original(signal_rounds(log))
        assert report.sifted == kept
        assert report.decode_accuracy == correct / kept
        assert report.inconclusive_rate == (600 - kept) / 600
        assert report.eve_information_rate == eve_correct / 600
        # posttest_fraction=None checks every conclusive round
        mism = kept - correct
        assert report.detection_rate == (mism / kept if kept else 0.0)
        assert (report.pretest_correlated, report.pretest_hits,
                report.pretest_abort) == (None, None, None)


def test_original_session_exact_rates_no_eve():
    report, _ = run_trials(original(3, 5000, seed=2), return_rounds=True)
    assert report.decode_accuracy == 1.0
    assert report.detection_rate == 0.0
    p = 1.0 / 3
    sigma = np.sqrt(p * (1 - p) / 5000)
    assert abs(report.inconclusive_rate - p) < 5 * sigma
    assert report.eve_information_rate == 0.0


def test_original_session_under_attack_is_invisible():
    """The attack never trips the supervisor check: every conclusive decode
    still names Bob's basis, while Eve reads most of the traffic."""
    d = 3
    report, _ = run_trials(original(d, 20000, seed=4, eve=EveMode.INTERCEPT),
                           return_rounds=True)
    assert report.decode_accuracy == 1.0
    assert report.detection_rate == 0.0
    target = 1.0 - 1.0 / d
    sigma = np.sqrt(target * (1 - target) / 20000)
    assert abs(report.eve_information_rate - target) < 5 * sigma
    # Eve's interference raises the inconclusive rate above 1/d
    uncond = 1.0 / d + (d - 1) / d ** 2
    sigma = np.sqrt(uncond * (1 - uncond) / 20000)
    assert abs(report.inconclusive_rate - uncond) < 5 * sigma


def test_dual_session_report_matches_records(signal_rounds):
    report, log = run_trials(dual(2, 800, seed=13, eve=EveMode.DUAL_FAMILY,
                                  posttest_fraction=0.3),
                             return_rounds=True)
    assert len(log) == 800
    rounds = signal_rounds(log)
    matched = [r for r in rounds if r.alice_prep_family is r.bob_basis.family]
    kept = [r for r in matched if r.alice_decode >= 0]
    correct = [r for r in kept if r.alice_decode == basis_code(r.bob_basis)]
    eve_correct = [r for r in rounds if r.eve_decode == basis_code(r.bob_basis)
                   and r.bob_basis.family is Family.PLAIN]
    assert report.sifted == len(kept)
    assert report.decode_accuracy == len(correct) / len(kept)
    assert report.inconclusive_rate == (len(matched) - len(kept)) / len(matched)
    assert report.eve_information_rate == len(eve_correct) / 800
    assert report.detection_rate > 0.0


def test_dual_session_clean_run_never_flags():
    report, _ = run_trials(dual(3, 4000, seed=8), return_rounds=True)
    assert report.decode_accuracy == 1.0
    assert report.detection_rate == 0.0


def test_tomographic_session_record_structure():
    report, log = run_trials(tomographic(2, 1000, seed=30), return_rounds=True)
    assert log.pretest.size == 200
    assert log.basis.size == 800
    assert 0 < report.pretest_correlated == report.pretest_hits < 200
    assert report.pretest_abort is False
    assert report.decode_accuracy == 1.0


def test_a_session_builds_its_lookups_before_any_block(monkeypatch):
    """Both phases' workers are built before the first block runs, so a
    tomographic session whose table cannot be built yields no pre-test row."""
    def no_table(d, n_families):
        raise MemoryError

    monkeypatch.setattr(protocol, "_table_lookup", no_table)
    session = protocol._run_session(tomographic(3, 1000, seed=30), 1, True)
    with pytest.raises(MemoryError):
        next(session)


_DTYPES = {"pretest": np.uint32, "family": np.uint8, "basis": np.uint16,
           "outcome": np.uint16, "eve_outcome": np.uint16}


def test_round_log_dtypes_hold_every_index_at_max_dim():
    """Each column's dtype holds the largest index it takes at MAX_DIM, by
    arithmetic alone: pre-test cells reach ((d + 1) d)^2 - 1, which passes
    2^16 from d = 17 on, pair outcomes d^2 - 1 and bases 2(d + 1) - 1."""
    largest = {"pretest": ((MAX_DIM + 1) * MAX_DIM) ** 2 - 1, "family": 1,
               "basis": 2 * (MAX_DIM + 1) - 1, "outcome": MAX_DIM ** 2 - 1,
               "eve_outcome": MAX_DIM ** 2 - 1}
    assert protocol._COLUMN_DTYPES == {name: np.dtype(t) for name, t in _DTYPES.items()}
    assert list(protocol._COLUMN_DTYPES) == [f.name for f in dataclasses.fields(RoundLog)][2:]
    for name, dtype in _DTYPES.items():
        assert largest[name] <= np.iinfo(dtype).max, name
    assert ((17 + 1) * 17) ** 2 > np.iinfo(np.uint16).max
    assert largest["pretest"] == 4_000_815_503


def test_round_log_arrays_are_integer_per_phase():
    """Every RoundLog array is an integer ndarray with one entry per round of
    its phase, indexing the alphabet, the pair outcomes or the pre-test cells."""
    d = 3
    for cfg in (original(d, 1000, 1), original(d, 1000, 1, eve=EveMode.INTERCEPT),
                tomographic(d, 1000, 1), tomographic(d, 1000, 1, eve=EveMode.INTERCEPT),
                dual(d, 1000, 1), dual(d, 1000, 1, eve=EveMode.DUAL_FAMILY)):
        log = run_trials(cfg, return_rounds=True)[1]
        n_pre = 0 if cfg.pretest_fraction is None else 200
        assert (log.d, log.alphabet, len(log)) == (d, cfg.alphabet(), 1000)
        assert (log.eve_outcome is None) == (cfg.eve is EveMode.OFF)
        n_families = 2 if cfg.protocol is Protocol.DUAL_FAMILY else 1
        columns = {"pretest": (log.pretest, n_pre, ((d + 1) * d) ** 2),
                   "family": (log.family, 1000 - n_pre, n_families),
                   "basis": (log.basis, 1000 - n_pre, len(cfg.alphabet())),
                   "outcome": (log.outcome, 1000 - n_pre, d * d),
                   "eve_outcome": (log.eve_outcome, 1000 - n_pre, d * d)}
        for name, (array, size, bound) in columns.items():
            if array is None:
                continue
            assert isinstance(array, np.ndarray), (cfg, name)
            assert np.issubdtype(array.dtype, np.integer), (cfg, name)
            assert array.dtype == _DTYPES[name], (cfg, name)
            assert array.shape == (size,), (cfg, name)
            assert size == 0 or 0 <= array.min() <= array.max() < bound, (cfg, name)


def test_session_rejects_bad_arguments():
    with pytest.raises(ValueError):
        original(2, 0, seed=0)
    with pytest.raises(ValueError):
        tomographic(2, 100, seed=0, pretest_fraction=0.0)
    with pytest.raises(ValueError):
        tomographic(2, 100, seed=0, posttest_fraction=1.0)
    with pytest.raises(ValueError):
        dual(2, 100, seed=0, posttest_fraction=0.0)
    # valid fractions can still leave a phase empty: the config refuses
    with pytest.raises(ValueError, match="empty pre-test or signal phase"):
        tomographic(2, 2, seed=0, pretest_fraction=0.1)
    with pytest.raises(ValueError, match="empty pre-test or signal phase"):
        tomographic(2, 2, seed=0, pretest_fraction=0.9)


def test_sessions_deterministic_in_seed():
    a, _ = run_trials(original(3, 3000, seed=77, eve=EveMode.INTERCEPT), return_rounds=True)
    b, _ = run_trials(original(3, 3000, seed=77, eve=EveMode.INTERCEPT), return_rounds=True)
    c, _ = run_trials(original(3, 3000, seed=78, eve=EveMode.INTERCEPT), return_rounds=True)
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# Engine internals: CDF tails and worker threads.
# ---------------------------------------------------------------------------

class _ConstantRawStream:
    """A stand-in block stream whose every raw 64-bit draw has top 53 bits k
    and low 11 bits set, bits the session engine must drop."""

    def __init__(self, k):
        self.bit_generator = self
        self.word = k << 11 | 0x7FF

    def random_raw(self, n):
        return np.full(n, self.word, dtype=np.uint64)


class _RowStream:
    """A stand-in block stream whose i-th ``random_raw`` call returns one row
    of words, each with top 53 bits ``ks[i]`` and low 11 bits set."""

    def __init__(self, ks):
        self.bit_generator = self
        self.ks = iter(ks)

    def random_raw(self, n):
        return np.full(n, next(self.ks) << 11 | 0x7FF, dtype=np.uint64)


def _settings(d, n_families, eve, weights):
    """The leading arguments of ``protocol._signal_block`` in a session of
    ``n_families`` at ``d``, with Bob's message drawn from ``weights``."""
    weights = np.asarray(weights, dtype=float)
    return (basis_alphabet(d, protocol._FAMILIES[:n_families]),
            *protocol._table_lookup(d, n_families),
            d, eve, protocol._inverse_cdf(_cdf(weights / weights.sum())))


class _TopOfUnitInterval(_ConstantRawStream):
    """A stand-in stream or generator: every uniform draw is the largest float
    below 1, u = 1 - 2^-53, and every raw draw is 2^64 - 1, whose top 53 bits
    are the same draw k = 2^53 - 1."""

    def __init__(self):
        super().__init__((1 << 53) - 1)

    def random(self, n=None):
        top = np.nextafter(1.0, 0.0)
        return top if n is None else np.full(n, top)


def _exact_prob(d, family, basis, outcome):
    return pair_outcome_probs(d, family, basis)[pair_outcome_labels(d).index(outcome)]


@pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
def test_cdf_tail_never_samples_impossible_outcomes(d, monkeypatch, signal_rounds):
    """Every draw at u = 1 - 2^-53 lands on an outcome of nonzero probability.

    The single-round sampler takes every row of both families directly.
    One session per message label steers Bob through every basis.  The
    family coin then always picks hat, so the dual-family sessions read
    each hat-prepared row directly and each plain-prepared row through
    Eve's plain decoy; the original sessions read every plain row.
    """
    for family in (Family.PLAIN, Family.HAT):
        for basis in basis_alphabet(d, (Family.PLAIN, Family.HAT)):
            probs = pair_outcome_probs(d, family, basis)
            assert probs[sample_outcome(probs, _TopOfUnitInterval())] > TOLERANCE, \
                (family, basis)
    monkeypatch.setattr(protocol, "derive_round_stream",
                        lambda seed, index: _TopOfUnitInterval())
    configs = []
    for make, eves in ((original, (EveMode.OFF, EveMode.INTERCEPT)),
                       (dual, (EveMode.OFF, EveMode.DUAL_FAMILY))):
        for basis in make(d, 1, 0).alphabet():
            for eve in eves:
                configs.append(make(d, 2, 0, eve=eve,
                                    message_distribution={basis.text(): 1.0}))
    configs.append(tomographic(d, 10, 0))
    if d == 3:   # these weights sum to 0.9999999999999999 = u, short of 1
        configs.append(original(d, 2, 0, message_distribution={
            "comp": 0.1, "q0": 0.2, "q1": 0.3}))
    pretest = pretest_joint(d).ravel()
    for cfg in configs:
        weights = cfg.message_weights()
        sendable = {b for i, b in enumerate(cfg.alphabet())
                    if weights[i] > 0.0}
        log = run_trials(cfg, return_rounds=True)[1]
        for cell in log.pretest.tolist():
            assert pretest[cell] > TOLERANCE, (cfg, cell)
        for rec in signal_rounds(log):
            assert rec.bob_basis in sendable, (cfg, rec)
            if rec.eve_decode is None:
                p = _exact_prob(d, rec.alice_prep_family, rec.bob_basis, rec.alice_outcome)
                assert p > TOLERANCE, (cfg, rec)
                continue
            assert _exact_prob(d, Family.PLAIN, rec.bob_basis, rec.eve_outcome) > TOLERANCE
            if rec.eve_decode < 0:
                assert rec.alice_outcome == (0, 0)
            else:
                forward = BasisId(Family.PLAIN, None if rec.eve_decode == 0
                                  else rec.eve_decode - 1)
                p = _exact_prob(d, rec.alice_prep_family, forward, rec.alice_outcome)
                assert p > TOLERANCE, (cfg, rec)


def _edge_draws(row: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws k of u = k / 2^53 on every cell edge of a CDF row and one step
    either side, k = 0 and k = 2^53 - 1, and some uniform draws."""
    unit = 2.0 ** 53
    k = row * unit
    k = np.concatenate([np.floor(k) - 1, np.floor(k), np.ceil(k), np.ceil(k) + 1,
                        [0.0, unit - 1]])
    return np.concatenate([np.unique(np.clip(k, 0, unit - 1)),
                           np.floor(rng.random(300) * unit)]).astype(np.int64)


def _assert_lookup_is_searchsorted(lookup, probs: np.ndarray) -> None:
    """Every row of ``lookup`` gives the float ``searchsorted`` of its CDF
    on edge and random draws, and never a cell below ``TOLERANCE``."""
    probs = probs.reshape(-1, probs.shape[-1])
    cum = _cdf(probs)
    rng = np.random.default_rng(3)
    draws = [_edge_draws(row, rng) for row in cum]
    k = np.concatenate(draws)
    rows = np.repeat(np.arange(len(cum)), [row.size for row in draws])
    out, scratch = np.empty(k.size, dtype=np.int64), protocol._Scratch(k.size)
    # one-row lookups take the row as a scalar, as the engine passes it
    got = lookup(0 if len(cum) == 1 else rows, k, out, scratch)
    assert got is out and got.dtype == np.int64
    expected = np.concatenate([np.searchsorted(row, x / 2.0 ** 53, side="right")
                               for row, x in zip(cum, draws)])
    assert_array_equal(got, expected)
    assert (probs[rows, got] >= TOLERANCE).all()


@pytest.mark.parametrize("k", [(1 << 52) - 1, 1 << 52, (1 << 52) + 1])
def test_integer_coins_are_the_float_predicates(k):
    """Around u = k / 2^53 = 1/2 the family coin is u >= 1/2 and the
    post-test coin is u < f, for f at 1/2 and one ulp either side."""
    d, u = 3, k / 2.0 ** 53
    settings = _settings(d, 2, False, np.ones(2 * (d + 1)))
    for f in (np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)):
        counts, log = protocol._signal_block(*settings, float(f), True, _ConstantRawStream(k),
                                             4, protocol._Scratch(4))
        assert_array_equal(log.family, np.full(4, int(u >= 0.5)))
        assert counts["kept"] == 4
        assert counts["checked"] == (4 if u < f else 0), (k, f)


class _RecordingStream:
    """A block stream that serves a real stream's raw words and records how
    many each call asked for."""

    def __init__(self, seed):
        self.bit_generator = self
        self.words = derive_round_stream(seed, 0).bit_generator
        self.calls = []

    def random_raw(self, n):
        self.calls.append(n)
        return self.words.random_raw(n)


@pytest.mark.parametrize("n_families,eve,posttest_fraction",
                         [(f, e, p) for f in (1, 2) for e in (False, True) for p in (None, 0.5)])
def test_a_signal_block_draws_its_words_in_one_call(n_families, eve, posttest_fraction):
    """A block takes each draw's words in one ``random_raw`` call of n words,
    one call for each draw the config makes (family coin, message, first
    outcome, outcome after the resend, post-test coin), and no more, whether
    collected or not, and so whether it looks its outcomes' cells up or not."""
    d, n = 5, 1000
    settings = _settings(d, n_families, eve, np.ones((d + 1) * n_families))
    draws = (n_families == 2) + 2 + eve + (posttest_fraction is not None)
    for collect in (True, False):
        stream = _RecordingStream(4)
        _, log = protocol._signal_block(*settings, posttest_fraction, collect, stream, n,
                                        protocol._Scratch(n))
        assert stream.calls == [n] * draws, collect
        assert len(log) == n if collect else log is None


def _raw_word_rows_at_peak(d: int, n_families: int) -> float:
    """The traced peak of one warm, full, uncollected block with the
    attacker and a post-test coin, in rows of raw words."""
    n = BLOCK_ROUNDS
    settings = _settings(d, n_families, True, np.ones((d + 1) * n_families))
    scratch = protocol._Scratch(n)

    def block(stream):
        return protocol._signal_block(*settings, 0.5, False, stream, n, scratch)

    block(derive_round_stream(5, 0))   # makes the buffers
    stream = derive_round_stream(5, 1)
    tracemalloc.start()
    try:
        block(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * np.dtype(np.uint64).itemsize)


def test_a_signal_block_holds_one_row_of_raw_words_at_a_time():
    """Once its thread's buffers are made, a full block with every draw (two
    families, the attacker, a post-test coin) traces at most two rows of raw
    words: each row is dead before the next is drawn, and the hat rounds
    that decode cells look them up in the thread's subset buffers."""
    assert _raw_word_rows_at_peak(7, 2) <= 2


def test_a_keyed_signal_block_holds_one_row_of_raw_words_at_a_time():
    """A tomographic intercepted block at d=31 with a post-test coin, which
    compares every outcome draw with a key, traces at most two rows of raw
    words too."""
    assert _raw_word_rows_at_peak(31, 1) <= 2


# The (n_families, eve, posttest_fraction) of each protocol and Eve pair.
_PAIRS = {"original-off": (1, False, None), "original-intercept": (1, True, None),
          "tomographic-off": (1, False, 0.5), "tomographic-intercept": (1, True, 0.5),
          "dualfamily-off": (2, False, 0.5), "dualfamily-dualfamily": (2, True, 0.5)}


def _logged_counts(rounds, coin):
    """A signal block's counts recomputed from its collected ``rounds``, as
    ``dense.signal_rounds`` decodes them, and ``coin``, its post-test coin
    per round (all True when every conclusive round is checked)."""
    matched = [r.alice_prep_family is r.bob_basis.family for r in rounds]
    kept = [m and r.alice_decode >= 0 for m, r in zip(matched, rounds)]
    correct = [k and r.alice_decode == basis_code(r.bob_basis) for k, r in zip(kept, rounds)]
    checked = [k and c for k, c in zip(kept, coin)]
    counts = {"matched": sum(matched), "kept": sum(kept), "correct": sum(correct),
              "checked": sum(checked),
              "mismatches": sum(c and not ok for c, ok in zip(checked, correct))}
    if rounds and rounds[0].eve_decode is not None:   # her decoy is plain
        counts["eve_correct"] = sum(r.bob_basis.family is Family.PLAIN
                                    and r.eve_decode == basis_code(r.bob_basis) for r in rounds)
    return counts


@pytest.mark.parametrize("d", [2, 3, 5, 13, 31])
@pytest.mark.parametrize("pair", list(_PAIRS))
def test_an_uncollected_block_counts_what_its_cells_count(d, pair, signal_rounds):
    """On 50 streams, with uniform and with skewed messages (some never
    sent), a block counts the same uncollected and collected, and both are
    the counts of the cells its collected log holds: each round decoded by
    the plain-integer oracle, and the post-test coin replayed from the
    block's last row of raw words."""
    n_families, eve, posttest_fraction = _PAIRS[pair]
    n_bases = (d + 1) * n_families
    skewed = np.random.default_rng(d).random(n_bases) ** 3
    skewed[1::3] = 0.0
    draws = (n_families == 2) + 2 + eve + (posttest_fraction is not None)
    n, scratch = 700, protocol._Scratch(700)
    for weights in (np.ones(n_bases), skewed):
        settings = _settings(d, n_families, eve, weights)
        for seed in range(50):
            (counts, log), (uncollected, none) = (
                protocol._signal_block(*settings, posttest_fraction, collect,
                                       derive_round_stream(seed, d), n, scratch)
                for collect in (True, False))
            assert none is None
            coin = np.ones(n, bool)
            if posttest_fraction is not None:
                words = derive_round_stream(seed, d).bit_generator.random_raw(draws * n)
                coin = (words[-n:] >> 11) * 2.0 ** -53 < posttest_fraction
            expected = _logged_counts(signal_rounds(log), coin.tolist())
            assert counts == uncollected == expected, (seed, weights)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("pair", list(_PAIRS))
def test_a_draw_on_a_key_reads_as_its_cell_does(d, pair, signal_rounds):
    """For every basis Bob sends, on a pair of its own family, Eve's and
    Alice's draws one below, on and one above its key count, collected and
    not, as the cells of the collected log decode: a draw on the key is
    still (0,0).  The key is the last k whose u = k / 2^53 lies below the
    row's first CDF entry."""
    n_families, eve, posttest_fraction = _PAIRS[pair]
    alphabet = basis_alphabet(d, protocol._FAMILIES[:n_families])
    keys = protocol._table_lookup(d, n_families)[1].tolist()
    for j, basis in enumerate(alphabet):
        first = _cdf(pair_outcome_probs(d, basis.family, basis))[0]
        assert keys[j] == math.ceil(first * 2 ** 53) - 1, basis
        settings = _settings(d, n_families, eve, np.eye(len(alphabet))[j])
        # the family coin: k = 0 is plain, 2^53 - 1 hat; the post-test coin k = 0 checks
        coin = [] if n_families == 1 else [0 if basis.family is Family.PLAIN else (1 << 53) - 1]
        around = (keys[j] - 1, keys[j], keys[j] + 1)
        for reads in itertools.product(around, repeat=1 + eve):
            rows = [*coin, 0, *reads] + ([] if posttest_fraction is None else [0])
            (counts, log), (uncollected, _) = (
                protocol._signal_block(*settings, posttest_fraction, collect, _RowStream(rows),
                                       4, protocol._Scratch(4))
                for collect in (True, False))
            expected = _logged_counts(signal_rounds(log), [True] * 4)
            assert counts == uncollected == expected, (basis, reads)


@pytest.mark.parametrize("make,eve", [
    (original, EveMode.OFF), (original, EveMode.INTERCEPT), (tomographic, EveMode.OFF),
    (tomographic, EveMode.INTERCEPT), (dual, EveMode.OFF), (dual, EveMode.DUAL_FAMILY)],
    ids=["original-off", "original-intercept", "tomographic-off", "tomographic-intercept",
         "dualfamily-off", "dualfamily-dualfamily"])
def test_an_uncollected_session_reports_what_a_collected_one_does(make, eve):
    """A three-block session reports the same whether its blocks look their
    cells up for a log (collected) or not, at one and at two workers."""
    config = make(5, 3 * BLOCK_ROUNDS, 21, eve=eve)
    expected = run_trials(config, return_rounds=True)[0]
    for workers in (1, 2):
        assert run_trials(config, workers=workers) == expected
        assert run_trials(config, workers=workers, return_rounds=True)[0] == expected


def test_a_row_that_decodes_to_another_basis_is_refused(fresh_caches, monkeypatch):
    """Every round is counted from keys, so a table whose own rows break
    the decode rule is refused.  When the comp row of a family's own pair
    is made that pair's q0 row, whose conclusive cells decode to q0,
    building the table raises ``RuntimeError`` naming the row: row 1 for
    the plain pair, row 14 for the hat pair at d=3, whose rows follow the
    plain pair's nine.  A session raises it too, before any block draws a
    word, collected or not, and the dual-family one under attack too."""
    d = 3
    exact = protocol.pair_outcome_probs
    streams = []
    monkeypatch.setattr(protocol, "derive_round_stream",
                        lambda seed, index: streams.append(index))
    for family, n_families, row, configs in (
            (Family.PLAIN, 1, 1, [original(d, 3 * BLOCK_ROUNDS, 5)]),
            (Family.HAT, 2, 14, [dual(d, 3 * BLOCK_ROUNDS, 5, eve=eve)
                                 for eve in (EveMode.OFF, EveMode.DUAL_FAMILY)])):
        comp, q0 = basis_alphabet(d, (family,))[:2]
        monkeypatch.setattr(protocol, "pair_outcome_probs", lambda dim, own, basis: exact(
            dim, own, q0 if own is family and basis == comp else basis))
        refused = f"row {row} of the d=3 outcome table does not decode as its key counts"
        with pytest.raises(RuntimeError, match=refused):
            protocol._table_lookup(d, n_families)
        for config, return_rounds in itertools.product(configs, (False, True)):
            with pytest.raises(RuntimeError, match=refused):
                run_trials(config, return_rounds=return_rounds)
    assert streams == []


@pytest.mark.parametrize("d,n_families", [(d, f) for d in (2, 5, 13, 31) for f in (1, 2)])
def test_grouped_lookup_equals_per_row_searchsorted(d, n_families):
    """The guide-table lookups of the outcome tables and of Bob's message
    are the per-row float inverse CDF, also on cell edges."""
    lookup, rows = protocol._table_lookup(d, n_families)[0], _table_rows(d, n_families)
    _assert_lookup_is_searchsorted(lookup, rows)
    k = np.array([0, 1, 1 << 52, (1 << 53) - 1])
    for untouched in np.arange(n_families) * rows.shape[1]:
        cells = lookup(np.full(k.size, untouched), k, np.empty(k.size, np.int64),
                       protocol._Scratch(k.size))
        assert_array_equal(cells, 0)   # the untouched pair always reads (0,0)
        # every in-row key is the row's last, so no draw reaches a cell past (0,0)
        in_row = lookup.thresholds[untouched * lookup.cells:(untouched + 1) * lookup.cells]
        assert_array_equal(in_row - untouched * 2 ** 53, 2 ** 53 - 1)
    n_bases = len(basis_alphabet(d, protocol._FAMILIES[:n_families]))
    weights = np.random.default_rng(d).random(n_bases)
    weights[::3] = 0.0
    for w in (np.full(n_bases, 1.0 / n_bases), weights / weights.sum()):
        _assert_lookup_is_searchsorted(protocol._inverse_cdf(_cdf(w)), w)


@pytest.mark.parametrize("d", [3, 7, 13])
def test_guide_searches_only_buckets_of_different_keys(d):
    """Per bucket of every lookup a session builds, ``edge`` is 2^53 when
    the bucket holds no in-row key, its key when all its keys are equal
    (zero cells after a nonzero one share their edge), and -1 otherwise;
    ``start`` counts the in-row keys below the bucket.  Only -1 searches."""
    lookups = [protocol._table_lookup(d, 1)[0], protocol._table_lookup(d, 2)[0]]
    n_bases = len(basis_alphabet(d, protocol._FAMILIES))
    weights = np.arange(n_bases, dtype=float) % 3   # some messages never sent
    for w in (np.ones(n_bases), weights):
        lookups.append(protocol._inverse_cdf(_cdf(w / w.sum())))
    for lookup in lookups:
        rows = lookup.thresholds.size // lookup.cells
        row = np.repeat(np.arange(rows), lookup.cells)
        keys = lookup.thresholds - row * 2 ** 53
        per_row = 1 << lookup.bits
        # a key of -1 (a leading zero cell) lies below its row's buckets
        inside = keys >= 0
        bucket = (row << lookup.bits)[inside] + (keys[inside] >> (53 - lookup.bits))
        held = np.bincount(bucket, minlength=rows * per_row)
        low = np.full(rows * per_row, 2 ** 53)
        high = np.full(rows * per_row, -1)
        np.minimum.at(low, bucket, keys[inside])
        np.maximum.at(high, bucket, keys[inside])
        edge = np.where(held == 0, 2 ** 53, np.where(low == high, low, -1))
        assert_array_equal(lookup.edge, edge)
        floor = np.arange(per_row) << (53 - lookup.bits)   # each bucket's first key
        start = np.concatenate([np.searchsorted(np.sort(keys[row == r]), floor)
                                for r in range(rows)])
        assert_array_equal(lookup.start, start)
        assert lookup.searches == bool((edge < 0).any())


# Blocks sample into buffers that each worker thread reuses; these sessions
# span several blocks of both phases, so any buffer shared by mistake shows.
@pytest.mark.parametrize("make,eve", [
    (original, EveMode.INTERCEPT), (tomographic, EveMode.INTERCEPT),
    (dual, EveMode.DUAL_FAMILY)], ids=["original", "tomographic", "dualfamily"])
def test_reused_block_buffers_alias_no_report_or_log(make, eve):
    """Reports do not depend on collection or workers, and a collected log
    is left as it was by the sessions that run after it."""
    rounds = 5 * BLOCK_ROUNDS + 100
    expected, log = run_trials(make(5, rounds, 11, eve=eve), return_rounds=True)
    fields = ("pretest", "family", "basis", "outcome", "eve_outcome")
    kept = {f: getattr(log, f).copy() for f in fields}
    for workers in (1, 2):
        assert run_trials(make(5, rounds, 11, eve=eve), workers=workers) == expected
        report, again = run_trials(make(5, rounds, 11, eve=eve), workers=workers,
                                   return_rounds=True)
        assert report == expected
        for f in fields:
            assert_array_equal(getattr(again, f), kept[f], err_msg=f)
    run_trials(make(5, rounds, 12, eve=eve), return_rounds=True)
    for f in fields:
        assert_array_equal(getattr(log, f), kept[f], err_msg=f)


_FAULTS_PER_BLOCK = """
import resource, sys
from mubsig.harness import EveMode, HarnessConfig, Protocol, run_trials
from mubsig.protocol import BLOCK_ROUNDS
protocol, eve = Protocol(sys.argv[1]), EveMode(sys.argv[2])
config = HarnessConfig(d=5, protocol=protocol, rounds=64 * BLOCK_ROUNDS, seed=7, eve=eve,
                       posttest_fraction=0.5 if protocol is Protocol.DUAL_FAMILY else None)
run_trials(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_trials(config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 64)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
@pytest.mark.parametrize("kind,eve", [(Protocol.ORIGINAL, EveMode.INTERCEPT),
                                      (Protocol.DUAL_FAMILY, EveMode.DUAL_FAMILY)])
def test_warm_blocks_take_no_page_faults(kind, eve):
    """A warm 64-block session at workers=1 reuses one set of block
    buffers, so its minor page faults do not grow with its blocks (fresh
    arrays in every block took 470 to 590 per block here).  A fresh
    process keeps the allocator state of earlier tests out of the count."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_BLOCK, kind.value, eve.value],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert float(proc.stdout) < 50, proc.stdout


def test_block_stream_stays_a_few_blocks_ahead_of_its_reader(monkeypatch):
    """At workers=2 the blocks come in block order, at most four of them
    are sampled before the reader takes them, and each of the two threads
    samples into one scratch set of its own."""
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
    total = 20 * BLOCK_ROUNDS + 5
    started, scratches = [], set()

    def worker(stream, n, scratch):
        started.append(n)
        scratches.add(id(scratch))
        return n, int(stream.bit_generator.random_raw())

    expected = list(protocol._run_blocks(worker, total, 9, 0, 1))
    assert [n for n, _ in expected] == [BLOCK_ROUNDS] * 20 + [5]
    started.clear()
    scratches.clear()
    got = []
    for taken, result in enumerate(protocol._run_blocks(worker, total, 9, 0, 2)):
        time.sleep(0.002)   # time for the threads to run ahead, if they could
        assert len(started) <= taken + 4, (taken, len(started))
        got.append(result)
    assert got == expected
    assert len(scratches) <= 2


def test_pretest_blocks_hold_a_few_blocks_of_buffers(monkeypatch):
    """The pre-test blocks of a warm d=61 session at workers=2 return two
    counts each, and nothing the size of the ((d+1) d)^2 = 14.3 M cells is
    made: the session's traced peak is a few blocks' buffers (each thread's
    scratch set for either phase, and the rows of raw words in flight),
    under 20 int64 rows of a block (it peaked at 12.5), where one int64
    vector over the cells takes 114 MB."""
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
    d = 61
    config = tomographic(d, 8 * BLOCK_ROUNDS, 3, eve=EveMode.INTERCEPT, pretest_fraction=0.75)
    assert config.pretest_rounds() >= 4 * BLOCK_ROUNDS
    run_trials(tomographic(d, 10, 3, eve=EveMode.INTERCEPT, pretest_fraction=0.5))   # the caches
    tracemalloc.start()
    try:
        report = run_trials(config, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pretest_abort
    row = BLOCK_ROUNDS * np.dtype(np.int64).itemsize
    assert peak < 20 * row, peak / row


def test_worker_threads_are_capped(monkeypatch):
    """The sampling threads, the pool's and the reading thread, never
    outnumber the blocks or the CPUs this process may use (its affinity
    mask, or ``cpu_count`` where there is none); no real thread starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers + 1)   # the reading thread samples blocks too

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # _run_blocks imports the pool where it needs one, so the patch goes to its module
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    three_blocks = original(2, 3 * BLOCK_ROUNDS, seed=1)
    expected = run_trials(three_blocks)
    cases = ((8, 10 ** 6, [3]), (2, 10 ** 6, [2]), (8, 2, [2]), (1, 4, []))
    # the affinity mask caps the pool, however many CPUs the machine has
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 64)
    for cpus, workers, pools in cases:
        monkeypatch.setattr(protocol.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        sizes.clear()
        assert run_trials(three_blocks, workers=workers) == expected
        assert sizes == pools, ("mask", cpus, workers)
    monkeypatch.delattr(protocol.os, "sched_getaffinity")
    for cpus, workers, pools in cases + ((None, 10 ** 6, []),):
        monkeypatch.setattr(protocol.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert run_trials(three_blocks, workers=workers) == expected
        assert sizes == pools, ("cpu_count", cpus, workers)
    # a single block never asks for a pool, however many workers are offered
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 8)
    sizes.clear()
    run_trials(original(2, 100, seed=1), workers=10 ** 6)
    assert sizes == []
