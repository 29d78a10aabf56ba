import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mubsig import harness, oracle, protocol, quantum, verify
from mubsig.bases import (
    BasisId,
    Family,
    basis_alphabet,
    measurement_basis,
)
from mubsig.cli import main
from mubsig.harness import dual_family_detection_probability
from mubsig.protocol import _prep_pair
from mubsig.streams import derive_round_stream
from mubsig.verify import CheckResult, run_invariant_suite
from dense import (
    born_probabilities,
    density,
    entangled_basis,
    nonselective_measure,
    partial_trace,
)

EXPECTED_NAMES = (
    "field-arithmetic",
    "root-of-unity",
    "single-basis-orthonormality",
    "mutual-unbiasedness",
    "entangled-basis",
    "pair-reduced-states",
    "hadamard-root",
    "measurement-backaction",
    "pretest-partners",
    "decode-soundness",
    "decode-completeness",
    "travelling-privacy",
    "cross-family-visibility",
    "analytic-distributions",
    "born-rule-consistency",
    "attack-bookkeeping",
    "dual-attack-detectability",
    "session-determinism",
    "stream-derivation",
)


def test_suite_covers_every_named_invariant():
    names = tuple(r.name for r in run_invariant_suite(2))
    assert names == EXPECTED_NAMES


def test_suite_passes_at_small_prime_dimensions():
    for d in (2, 3):
        results = run_invariant_suite(d)
        failures = [(r.name, r.detail) for r in results if not r.passed]
        assert failures == []
        assert all(isinstance(r, CheckResult) for r in results)


def test_every_check_actually_asserts_something():
    for r in run_invariant_suite(2):
        assert r.assertions >= 2, r.name
        assert r.detail == ""


def test_suite_is_stable_between_runs():
    first = run_invariant_suite(3)
    second = run_invariant_suite(3)
    assert [(r.name, r.passed, r.assertions) for r in first] == \
           [(r.name, r.passed, r.assertions) for r in second]


def test_round_cdfs_hold_only_the_entries_the_rounds_drew_from(monkeypatch, fresh_caches):
    """The checks read branch amplitudes without keeping them: after a
    suite run, oracle._round_cdfs holds one entry per (family, basis) the
    oracle's rounds measured in, and a second run computes none again."""
    drawn = set()
    real = oracle._measure

    def recorded(d, family, basis, rng):
        drawn.add((d, family, basis))
        return real(d, family, basis, rng)

    monkeypatch.setattr(oracle, "_measure", recorded)
    assert all(r.passed for r in run_invariant_suite(3))
    # attack-bookkeeping's intercepted original rounds: Eve in each plain
    # basis Bob picked, Alice in each basis Eve resent in or untouched
    assert drawn == {(3, Family.PLAIN, b) for b in (None, *basis_alphabet(3))}
    first = oracle._round_cdfs.cache_info()
    assert first.misses == first.currsize == len(drawn) and first.hits > 0
    for key in drawn:   # each drawn entry is cached: a hit, no miss
        oracle._round_cdfs(*key)
    assert oracle._round_cdfs.cache_info().misses == len(drawn)
    assert all(r.passed for r in run_invariant_suite(3))
    second = oracle._round_cdfs.cache_info()
    assert (second.misses, second.currsize) == (len(drawn), len(drawn))


def test_dual_attack_detectability_keeps_no_branch_amplitudes(fresh_caches):
    """The check reads every (family, basis) entry's amplitudes once and
    keeps none: at d=31 they would hold about 60 MiB."""
    tracemalloc.start()
    try:
        assert verify._run_check("dual-attack-detectability", 31).passed
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 8 * 2 ** 20, kept


# Pinned ``mubsig verify --format json`` documents, every check's
# assertion count included (attack-bookkeeping's follows the oracle's draws).
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("d", (2, 3, 5, 7, 11))
def test_verify_document_matches_golden(d, capsys):
    assert main(["verify", "--dim", str(d), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"verify-d{d}.json").read_text())
    assert (got["dim"], got["passed"]) == (want["dim"], want["passed"]) == (d, True)
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert (g["passed"], g["detail"], g["assertions"]) == (
            w["passed"], w["detail"], w["assertions"]), g["name"]


def test_suite_and_cli_pass_at_d11(capsys):
    failures = [(r.name, r.detail) for r in run_invariant_suite(11) if not r.passed]
    assert failures == []
    assert main(["verify", "--dim", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[ok  ]") for line in lines[:-1])
    assert lines[-1].startswith(f"{len(EXPECTED_NAMES)}/{len(EXPECTED_NAMES)} checks passed")


def test_suite_passes_every_check_at_d17():
    failures = [(r.name, r.detail) for r in run_invariant_suite(17) if not r.passed]
    assert failures == []


FAMILIES = (Family.PLAIN, Family.HAT)


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_pure_state_route_matches_the_dense_density_operators(d):
    """The coefficients, probabilities and reduced states the checks read off
    the collapsed branches equal those of the dense density-operator route."""
    for family in FAMILIES:
        prep = density(_prep_pair(d, family))
        pair_basis = entangled_basis(d, 0, family)
        for basis in basis_alphabet(d, FAMILIES):
            dense = nonselective_measure(prep, 1, measurement_basis(d, basis))
            measured = oracle._amplitudes(d, family, basis)
            coeffs = pair_basis.conj().T @ dense @ pair_basis
            assert_allclose(verify._pair_coefficients(*measured), coeffs,
                            rtol=0, atol=1e-12, err_msg=f"{family} {basis}")
            assert_allclose(verify._outcome_probs(*measured),
                            born_probabilities(dense, pair_basis), rtol=0, atol=1e-12)
            assert_allclose(verify._travelling_state(*verify._branches(d, family, basis)),
                            partial_trace(dense, keep=1), rtol=0, atol=1e-12)
    # Unequal weights and pairs that are not maximally entangled, so that
    # the two halves' reduced states differ.
    rng = derive_round_stream(3, d)
    weights = rng.random(d)
    weights /= weights.sum()
    raw = np.stack([rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
                    for _ in range(d)]).reshape(d, d, d)
    collapsed = raw / np.linalg.norm(raw, axis=(1, 2), keepdims=True)
    mixture = sum(w * density(v) for w, v in zip(weights, collapsed))
    assert_allclose(verify._travelling_state(weights, collapsed),
                    partial_trace(mixture, keep=1), rtol=0, atol=1e-12)
    for psi in [*collapsed, entangled_basis(d, d - 1)[:, (1 % d) * (d + 1)].reshape(d, d)]:
        first, second = verify._reduced_states(psi)
        assert_allclose(first, partial_trace(density(psi), keep=1), rtol=0, atol=1e-12)
        assert_allclose(second, partial_trace(density(psi), keep=2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_summed_detection_probability_matches_the_tables(d):
    summed = verify._summed_detection_probabilities(d)
    for family in FAMILIES:
        assert abs(summed[family] - dual_family_detection_probability(d, family)) <= 1e-12


def test_a_failed_closeness_reads_plain_floats():
    """Checks pass numpy scalars; the detail shows their values, not their reprs."""
    check = verify._Check("x-check")
    check.close(np.float64(0.5), 0.0, "x")
    check.close(np.float64(1.0), 1.0, "y")
    assert check.result() == CheckResult("x-check", False, 2, "x: 0.5 != 0.0")


# Mutation checks: each patch breaks one fact, and the check that owns the
# fact must fail with a detail that names the offending cell.

def test_decode_completeness_catches_a_sign_flip_in_decode(monkeypatch):
    d = 5
    real = verify.decode

    def flipped(dim, prep, outcome):
        code = real(dim, prep, outcome)   # q_b becomes q_(-b)
        return np.where(code > 0, 1 + (1 - code) % dim, code)

    monkeypatch.setattr(verify, "decode", flipped)
    result = verify._run_check("decode-completeness", d)
    assert not result.passed
    assert result.assertions == d ** 5 + d ** 3
    assert result.detail.startswith("cross-c outcome at (0, 0, 0)->(1, 1)")


def test_decode_completeness_catches_one_wrong_table_cell(monkeypatch):
    d = 5
    codes = protocol._decode_codes(d).copy()
    cell = d + 2   # outcome (1, 2) of the prep (0, 0, 0): q3, code 4
    codes[cell] = 1 + codes[cell] % d
    monkeypatch.setattr(verify, "_decode_codes", lambda dim: codes)
    result = verify._run_check("decode-completeness", d)
    assert not result.passed
    assert result.detail.startswith("cross-c outcome at (0, 0, 0)->(1, 2)")


def test_mutual_unbiasedness_catches_a_perturbed_column(monkeypatch):
    d = 5
    real = verify.measurement_basis
    target = BasisId(Family.PLAIN, 2)

    def perturbed(dim, basis):
        out = real(dim, basis)
        if basis != target:
            return out
        m = out.copy()   # rotate column 0 a little towards column 1
        m[:, 0], m[:, 1] = (np.cos(0.1) * m[:, 0] + np.sin(0.1) * m[:, 1],
                            np.cos(0.1) * m[:, 1] - np.sin(0.1) * m[:, 0])
        return m

    monkeypatch.setattr(verify, "measurement_basis", perturbed)
    result = verify._run_check("mutual-unbiasedness", d)
    assert not result.passed
    assert re.match(r"\|<comp,\d\|q2,0>\|\^2: ", result.detail), result.detail


@pytest.mark.parametrize("d", (2, 5))
def test_pretest_partners_catches_a_wrong_partner(d, monkeypatch):
    """The check reads the sampler's partner table and measures it against
    kets built from the pair and the bases.  Partnering q_b with itself at
    outcome m holds for comp and q0 only: at d = 5 q1 needs q4, and at
    d = 2 q1 needs outcome m + 1, as the phase unit i has period 4."""
    side = (d + 1) * d
    target = np.array([x * side + (x if x >= d else -x % d) for x in range(side)])
    monkeypatch.setattr(verify, "_pretest_partners", lambda dim: (target - target % d, target))
    result = verify._run_check("pretest-partners", d)
    assert not result.passed
    assert result.assertions == (d + 1) * d
    assert result.detail.startswith("q1 outcome 0: Alice's ket is not q1 outcome 0"), \
        result.detail


def test_measurement_backaction_catches_a_conjugated_kept_half(monkeypatch, fresh_caches):
    d = 5
    real = oracle._branches

    def conjugated(d, family, basis):
        weights, collapsed = real(d, family, basis)
        b = measurement_basis(d, basis)
        kept = np.einsum("im,mij->mj", b.conj(), collapsed)
        return weights, b.T[:, :, None] * kept.conj()[:, None, :]

    monkeypatch.setattr(oracle, "_branches", conjugated)
    result = verify._run_check("measurement-backaction", d)
    assert not result.passed
    assert re.match(r"(plain|hat)/(hat-)?(comp|q\d) off-diagonal: ", result.detail), result.detail


def _patched_pair_kets(monkeypatch, d, target, change):
    """Let verify build its plain pair kets at s = ``target`` through ``change``.

    Only verify's own name is patched, and no cache holds the kets, so
    none needs clearing."""
    real = verify._pair_kets

    def patched(dim, s):
        kets = real(dim, s)
        if (dim, s) == (d, target):
            change(kets)
        return kets

    monkeypatch.setattr(verify, "_pair_kets", patched)


def test_entangled_basis_catches_an_amplitude_off_the_block(monkeypatch):
    """A 1e-6 amplitude off a ket's c-support leaves every block Gram exact,
    so only the off-block entries can catch it, as the dense Gram did."""
    d, s = 5, 2
    cc, r, n = 3, 1, 0

    def leak(kets):   # n' = c - n is the support; this is off it
        kets[cc, r, n, (cc - n + 1) % d] = 1e-6

    _patched_pair_kets(monkeypatch, d, s, leak)
    result = verify._run_check("entangled-basis", d)
    assert not result.passed and result.assertions == d + 1
    assert result.detail.startswith(f"pair basis gram at s={s}: 1e-06 != 0.0"), result.detail


def test_entangled_basis_catches_two_overlapping_kets_of_one_block(monkeypatch):
    d, s = 5, 3

    def tilt(kets):   # (c, r) = (2, 4): unit norm, but overlap sin(0.1) with (2, 1)
        kets[2, 4] = np.cos(0.1) * kets[2, 4] + np.sin(0.1) * kets[2, 1]

    _patched_pair_kets(monkeypatch, d, s, tilt)
    result = verify._run_check("entangled-basis", d)
    assert not result.passed and result.assertions == d + 1
    assert result.detail.startswith(f"pair basis gram at s={s}: "), result.detail


def test_a_warm_suite_rebuilds_no_draw_cdf(monkeypatch, fresh_caches):
    """The oracle's draws read the CDFs cached with its amplitudes: a second
    suite run makes no quantum._cdf call in attack-bookkeeping."""
    calls = []
    real_cdf = quantum._cdf

    def counting_cdf(probs):
        calls.append(probs.shape)
        return real_cdf(probs)

    for module in (quantum, oracle, protocol):
        monkeypatch.setattr(module, "_cdf", counting_cdf)
    counts = []
    real_check = verify._CHECKS["attack-bookkeeping"]

    def counted(c, d):
        before = len(calls)
        real_check(c, d)
        counts.append(len(calls) - before)

    monkeypatch.setitem(verify._CHECKS, "attack-bookkeeping", counted)
    for _ in range(2):   # fresh_caches drops the counted CDFs on teardown
        assert all(r.passed for r in run_invariant_suite(5))
    # the first run builds each entry's CDFs here, on its first draw
    assert counts[0] > 0 and counts[1] == 0, counts


def test_a_check_that_raises_fails_alone(monkeypatch, capsys):
    """A check that raises is reported as failed under its own name, with the
    exception as its detail; the other checks still run, their assertion
    counts unchanged, and ``mubsig verify`` exits 1 with a FAIL line."""
    real = harness.pair_outcome_probs
    monkeypatch.setattr(harness, "pair_outcome_probs", lambda *args: 1.01 * real(*args))
    want = json.loads((GOLDEN / "verify-d3.json").read_text())["checks"]
    results = run_invariant_suite(3)
    assert [r.name for r in results] == list(EXPECTED_NAMES)
    for r, w in zip(results, want):
        if r.name == "analytic-distributions":
            assert not r.passed
            assert r.detail.startswith("raised ValueError: probabilities must be "), r.detail
        else:
            assert (r.passed, r.assertions) == (True, w["assertions"]), r.name
    assert main(["verify", "--dim", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("[ok  ]")] == [
        f"[FAIL] analytic-distributions (0 assertions): "
        f"{results[EXPECTED_NAMES.index('analytic-distributions')].detail}",
        f"{len(EXPECTED_NAMES) - 1}/{len(EXPECTED_NAMES)} checks passed, "
        f"{sum(r.assertions for r in results)} assertions, d=3"]


def test_entangled_basis_catches_a_hat_transport_through_u_for_conj_u(monkeypatch):
    """The check reads every s = 0 ket back through the package's own
    bases._pair_amplitudes: transporting a hat pair by u^H V u, where
    u^H V conj(u) belongs, fails it."""
    d = 5
    real = verify._pair_amplitudes

    def through_u(dim, family, pairs):
        if family is not Family.HAT:
            return real(dim, family, pairs)
        u = verify.hadamard_root(dim)
        return real(dim, Family.PLAIN, u.conj().T @ pairs @ u)

    monkeypatch.setattr(verify, "_pair_amplitudes", through_u)
    result = verify._run_check("entangled-basis", d)
    assert not result.passed and result.assertions == d + 1
    assert result.detail.startswith("hat pair basis gram and amplitudes: "), result.detail


_SUITE_PEAK = """
import re, sys
from pathlib import Path
from mubsig.verify import run_invariant_suite
results = run_invariant_suite(int(sys.argv[1]))
peak_kb = re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text()).group(1)
print(all(r.passed for r in results), sum(r.assertions for r in results), peak_kb)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_suite_at_d31_peaks_below_250_mb():
    """The suite keeps no pair basis: it builds each one from its definition
    where it checks it, so at d=31 its peak stays well below the 560 MB
    that keeping all 32 bases took.  The child
    reports VmHWM, the peak of its own address space: its ru_maxrss would
    carry over the peak of this test process, which exec keeps."""
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SUITE_PEAK, "31"], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    passed, assertions, peak_kb = proc.stdout.split()
    assert (passed, int(assertions)) == ("True", 29_621_284)   # 992 from pretest-partners
    assert int(peak_kb) < 250 * 1024, peak_kb
