"""End-to-end acceptance tests.

Each test states one guaranteed property of the package, from the basis
geometry up to full attack/defence sessions, at its required tolerance.
The terminal summary prints one PASS/FAIL line per property.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mubsig.bases import (
    BasisId,
    Family,
    basis_alphabet,
    measurement_basis,
    pair_outcome_labels,
)
from mubsig.harness import (
    EveMode,
    HarnessConfig,
    Protocol,
    analytic_outcome_distribution,
    calibrate_tv_threshold,
    dual_family_detection_probability,
    run_trials,
)
from mubsig.protocol import decode, pair_outcome_probs
from mubsig.report import build_document, canonical_json
from dense import basis_code, density, entangled_basis, nonselective_measure, partial_trace

acceptance = pytest.mark.acceptance

SMALL_PRIMES = (2, 3, 5)
ALL_PRIMES = (2, 3, 5, 7, 11)
BOTH_FAMILIES = (Family.PLAIN, Family.HAT)


def pair_state(d, family):
    return density(entangled_basis(d, 0, family)[:, 0])


def five_sigma(p, n):
    return 5.0 * np.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# 1. Within each family, the d+1 single-qudit bases are mutually unbiased.
# ---------------------------------------------------------------------------

@acceptance
def test_basis_families_are_mutually_unbiased():
    start = time.monotonic()
    for d in ALL_PRIMES:
        for family in BOTH_FAMILIES:
            ids = basis_alphabet(d, (family,))
            mats = [measurement_basis(d, b) for b in ids]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    overlaps = np.abs(mats[i].conj().T @ mats[j]) ** 2
                    assert np.abs(overlaps - 1.0 / d).max() < 1e-10, \
                        (d, family, ids[i].text(), ids[j].text())
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 2. The d^2 entangled pair kets form complete orthonormal bases.
# ---------------------------------------------------------------------------

@acceptance
def test_entangled_alphabets_are_complete_orthonormal_bases():
    for d in ALL_PRIMES:
        eye = np.eye(d * d)
        variants = [(s, Family.PLAIN) for s in range(d)] + [(0, Family.HAT)]
        for s, family in variants:
            m = entangled_basis(d, s, family)
            assert np.abs(m.conj().T @ m - eye).max() < 1e-10, (d, s, family)
            assert np.abs(m @ m.conj().T - eye).max() < 1e-10, (d, s, family)


# ---------------------------------------------------------------------------
# 3. Every measured basis leaves exactly probability 1/d on the
#    preparation label (the inconclusive outcome).
# ---------------------------------------------------------------------------

@acceptance
def test_inconclusive_outcome_rate_is_one_over_d():
    for d in SMALL_PRIMES:
        for family in BOTH_FAMILIES:
            for basis in basis_alphabet(d, (family,)):
                dist = analytic_outcome_distribution(d, basis)
                assert abs(dist.as_mapping()[(0, 0)] - 1.0 / d) < 1e-10, \
                    (d, basis.text())
    for d in (2, 3):
        report = run_trials(HarnessConfig(d=d, protocol=Protocol.ORIGINAL,
                                          rounds=100_000, seed=31))
        assert abs(report.inconclusive_rate - 1.0 / d) < five_sigma(1.0 / d, 100_000)
    dual = run_trials(HarnessConfig(d=2, protocol=Protocol.DUAL_FAMILY,
                                    rounds=100_000, posttest_fraction=0.5, seed=32))
    # about half the rounds survive family sifting
    assert abs(dual.inconclusive_rate - 0.5) < five_sigma(0.5, 40_000)


# ---------------------------------------------------------------------------
# 4. Measuring the travelling half collapses the pair onto the exact
#    mixture of decodable outcomes, and only for the matching family.
# ---------------------------------------------------------------------------

@acceptance
def test_measurement_backaction_lands_on_the_decodable_support():
    for d in SMALL_PRIMES:
        pair = pair_state(d, Family.PLAIN)
        for basis in basis_alphabet(d):
            after = nonselective_measure(pair, 1, measurement_basis(d, basis))
            if basis.quad is None:
                labels = [(0, r) for r in range(d)]
            else:
                labels = [(c, (-basis.quad * c) % d) for c in range(d)]
            kets = [entangled_basis(d)[:, c * d + r] for c, r in labels]
            expected = sum(np.outer(k, k.conj()) for k in kets) / d
            assert np.abs(after - expected).max() < 1e-10, (d, basis.text())
    # measuring in the wrong family leaves visible coherences in the
    # holder's entangled basis, so the substitution attack is exposed
    for d in SMALL_PRIMES:
        for own, other in ((Family.PLAIN, Family.HAT), (Family.HAT, Family.PLAIN)):
            pair = pair_state(d, own)
            m = entangled_basis(d, 0, own)
            worst = 0.0
            for basis in basis_alphabet(d, (other,)):
                after = nonselective_measure(pair, 1, measurement_basis(d, basis))
                coords = m.conj().T @ after @ m
                off = np.abs(coords - np.diag(np.diag(coords))).max()
                worst = max(worst, off)
            assert worst > 1e-6, (d, own)


# ---------------------------------------------------------------------------
# 5. Decoding is sound: the post-measurement support names the measured
#    basis, uniquely, for every preparation.
# ---------------------------------------------------------------------------

@acceptance
def test_outcome_decoding_names_the_measured_basis():
    for d in SMALL_PRIMES:
        grid = np.indices((d,) * 5)   # every (c, r, s, c', r')
        codes = decode(d, grid[:3], grid[3:])
        mismatches = 0
        for (c, r, s, cp, rp), code in zip(grid.reshape(5, -1).T.tolist(),
                                           codes.ravel().tolist()):
            if cp == c and rp == r:
                ok = code == -1                         # inconclusive
            elif cp == c:
                ok = code == 0                          # computational
            else:
                b = (s - (r - rp) * pow((c - cp) % d, -1, d)) % d
                ok = code == 1 + b                      # q_b
            mismatches += not ok
        assert mismatches == 0
        # and the sampled supports land only on outcomes that decode back
        labels = pair_outcome_labels(d)
        for basis in basis_alphabet(d):
            probs = pair_outcome_probs(d, Family.PLAIN, basis)
            for (c, r), p in zip(labels, probs):
                if p < 1e-12 or (c, r) == (0, 0):
                    continue
                assert decode(d, (0, 0, 0), (c, r)) == basis_code(basis), \
                    (d, basis.text(), (c, r))
    # the exact d=2 outcome table
    support = {}
    for basis in basis_alphabet(2):
        probs = pair_outcome_probs(2, Family.PLAIN, basis)
        support[basis.text()] = {label for label, p in
                                 zip(pair_outcome_labels(2), probs) if p > 1e-12}
    assert support == {"comp": {(0, 0), (0, 1)},
                       "q0": {(0, 0), (1, 0)},
                       "q1": {(0, 0), (1, 1)}}


# ---------------------------------------------------------------------------
# 6. The travelling qudit is maximally mixed before and after any
#    receiver measurement: transit reveals nothing.
# ---------------------------------------------------------------------------

@acceptance
def test_travelling_qudit_reveals_nothing_in_transit():
    for d in SMALL_PRIMES:
        target = np.eye(d) / d
        for prep_family in BOTH_FAMILIES:
            pair = pair_state(d, prep_family)
            states = [pair]
            for family in BOTH_FAMILIES:
                for basis in basis_alphabet(d, (family,)):
                    states.append(nonselective_measure(
                        pair, 1, measurement_basis(d, basis)))
            for rho in states:
                reduced = partial_trace(rho, keep=1)
                eigs = np.linalg.eigvalsh(reduced - target)
                assert 0.5 * np.abs(eigs).sum() < 1e-10, (d, prep_family)


# ---------------------------------------------------------------------------
# 7. Intercept-resend against the bare protocol: the attacker reads the
#    basis on every conclusive interception, and the legitimate
#    statistics are exactly those of an undisturbed session.
# ---------------------------------------------------------------------------

@acceptance
def test_intercept_resend_reads_messages_without_detection(signal_rounds):
    for d in (2, 3):
        n = 100_000
        config = HarnessConfig(d=d, protocol=Protocol.ORIGINAL, rounds=n,
                               eve=EveMode.INTERCEPT, seed=71)
        report, log = run_trials(config, return_rounds=True)
        assert report.detection_rate == 0.0
        assert report.decode_accuracy == 1.0

        rounds = signal_rounds(log)
        conclusive = [r for r in rounds if r.eve_decode >= 0]
        p_read = 1.0 - 1.0 / d
        assert abs(len(conclusive) / n - p_read) < five_sigma(p_read, n)
        assert all(r.eve_decode == basis_code(r.bob_basis) for r in conclusive)
        assert report.eve_information_rate == len(conclusive) / n

        # an unread round sends the pair back untouched
        for r in rounds:
            if r.eve_decode < 0:
                assert r.alice_outcome == (0, 0)
                assert r.alice_decode < 0

        # conditioned on an interception, Alice's outcome frequencies
        # match the undisturbed distribution cell by cell
        labels = pair_outcome_labels(d)
        for basis in basis_alphabet(d):
            rows = [r for r in conclusive if r.bob_basis == basis]
            counts = {label: 0 for label in labels}
            for r in rows:
                counts[r.alice_outcome] += 1
            probs = pair_outcome_probs(d, Family.PLAIN, basis)
            for label, p in zip(labels, probs):
                if p < 1e-12:
                    assert counts[label] == 0, (d, basis.text(), label)
                else:
                    bound = 5.0 * np.sqrt(len(rows) * p * (1.0 - p))
                    assert abs(counts[label] - len(rows) * p) <= bound, \
                        (d, basis.text(), label)


# ---------------------------------------------------------------------------
# 8. The dual-family variant turns the same attack into a detectable
#    one: a known fraction of checked rounds mismatches.
# ---------------------------------------------------------------------------

@acceptance
def test_dual_family_sifting_exposes_the_intercept():
    exact2 = dual_family_detection_probability(2)
    exact3 = dual_family_detection_probability(3)
    assert abs(exact2 - float(Fraction(7, 24))) < 1e-12
    assert abs(exact3 - float(Fraction(11, 32))) < 1e-12
    assert exact2 > 0 and exact3 > 0

    n = 100_000
    attacked = run_trials(HarnessConfig(
        d=2, protocol=Protocol.DUAL_FAMILY, rounds=n, posttest_fraction=0.5,
        eve=EveMode.DUAL_FAMILY, seed=83))
    checked_at_least = int(attacked.sifted * 0.4)
    assert abs(attacked.detection_rate - exact2) < five_sigma(exact2, checked_at_least)
    assert attacked.decode_accuracy < 1.0
    assert attacked.eve_information_rate < 0.5

    clean = run_trials(HarnessConfig(
        d=2, protocol=Protocol.DUAL_FAMILY, rounds=20_000,
        posttest_fraction=0.5, seed=84))
    assert clean.detection_rate == 0.0
    assert clean.decode_accuracy == 1.0


# ---------------------------------------------------------------------------
# 9. The tomography pre-test separates clean and intercepted sessions
#    with a threshold calibrated from the exact reference distribution.
# ---------------------------------------------------------------------------

@acceptance
def test_tomography_pretest_flags_interception():
    start = time.monotonic()
    d, rounds, frac = 2, 40_000, 0.5
    n_pre = int(round(rounds * frac))
    threshold = calibrate_tv_threshold(d, n_pre, seed=1000)
    assert 0.0 < threshold < 0.5

    def divergence(seed, eve):
        return run_trials(HarnessConfig(
            d=d, protocol=Protocol.TOMOGRAPHIC, rounds=rounds,
            pretest_fraction=frac, posttest_fraction=0.5, seed=seed,
            eve=EveMode.INTERCEPT if eve else EveMode.OFF)).pretest_divergence

    false_alarms = sum(divergence(seed, eve=False) > threshold
                       for seed in range(100))
    detections = sum(divergence(seed, eve=True) > threshold
                     for seed in range(200, 300))
    assert false_alarms == 0
    assert detections >= 99
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 10. Reports are deterministic functions of their configuration:
#     byte-identical at any worker count.
# ---------------------------------------------------------------------------

@acceptance
def test_reports_are_byte_identical_across_workers(tmp_path):
    from mubsig.cli import main

    base = ["run", "--dim", "3", "--protocol", "original",
            "--rounds", "40000", "--eve", "intercept", "--seed", "97"]
    one, four = tmp_path / "w1.json", tmp_path / "w4.json"
    assert main(base + ["--workers", "1", "--out", str(one)]) == 0
    assert main(base + ["--workers", "4", "--out", str(four)]) == 0
    assert one.read_bytes() == four.read_bytes()

    for config in (
        HarnessConfig(d=2, protocol=Protocol.TOMOGRAPHIC, rounds=50_000,
                      pretest_fraction=0.3, posttest_fraction=0.5, seed=5),
        HarnessConfig(d=3, protocol=Protocol.DUAL_FAMILY, rounds=50_000,
                      posttest_fraction=0.4, eve=EveMode.DUAL_FAMILY, seed=6),
    ):
        solo = run_trials(config, workers=1)
        pooled = run_trials(config, workers=5)
        assert solo == pooled
        assert canonical_json(build_document(config, solo)) == \
            canonical_json(build_document(config, pooled))
