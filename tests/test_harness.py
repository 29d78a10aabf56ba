import json
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mubsig.bases import BasisId, Family, basis_alphabet, pair_outcome_labels
from mubsig.harness import (
    AnalyticDistribution,
    EveMode,
    HarnessConfig,
    Protocol,
    analytic_outcome_distribution,
    dual_family_detection_probability,
    run_trials,
)
from mubsig import protocol
from mubsig.protocol import pair_outcome_probs
from mubsig.report import build_document, canonical_json, config_from_document
from mubsig.streams import derive_round_stream
from dense import basis_code, decode_oracle


def original(rounds=100, **kw):
    return HarnessConfig(d=2, protocol=Protocol.ORIGINAL, rounds=rounds, **kw)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_accepts_the_three_protocols():
    original()
    HarnessConfig(d=3, protocol=Protocol.TOMOGRAPHIC, rounds=100,
                  pretest_fraction=0.2, posttest_fraction=0.5)
    HarnessConfig(d=3, protocol=Protocol.DUAL_FAMILY, rounds=100,
                  posttest_fraction=0.5, eve=EveMode.DUAL_FAMILY)


def test_config_rejects_bad_dimension_rounds_seed():
    with pytest.raises(ValueError):
        HarnessConfig(d=4, protocol=Protocol.ORIGINAL, rounds=10)
    with pytest.raises(ValueError):
        original(rounds=0)
    with pytest.raises(ValueError):
        original(seed=-1)
    with pytest.raises(ValueError):
        original(seed=2 ** 64)


@pytest.mark.parametrize("fields", [
    {"rounds": True}, {"seed": True}, {"rounds": 100.5}, {"seed": 1.5},
    {"protocol": "original"},
    {"protocol": Protocol.DUAL_FAMILY, "eve": "intercept", "posttest_fraction": 0.5},
], ids=["bool-rounds", "bool-seed", "float-rounds", "float-seed", "str-protocol",
        "str-eve"])
def test_config_refuses_wrongly_typed_fields(fields):
    """A wrongly typed field fails at construction, not later in a session
    or in a report that cannot reproduce itself."""
    with pytest.raises(TypeError):
        HarnessConfig(**{"d": 2, "protocol": Protocol.ORIGINAL, "rounds": 100, **fields})


@pytest.mark.parametrize("field", ["pretest_fraction", "posttest_fraction"])
@pytest.mark.parametrize("value", [Fraction(1, 2), Decimal("0.5"), np.float32(0.5)],
                         ids=["Fraction", "Decimal", "float32"])
def test_config_refuses_a_fraction_that_is_not_a_float(field, value):
    """A fraction of another number type would run, and then its report
    would fail to serialise; it fails at construction instead."""
    fractions = {"pretest_fraction": 0.2, "posttest_fraction": 0.5, field: value}
    with pytest.raises(TypeError, match=f"{field} must be of type float"):
        HarnessConfig(d=3, protocol=Protocol.TOMOGRAPHIC, rounds=100, **fractions)


def test_a_float64_fraction_runs_and_its_report_reproduces_it():
    """``np.float64`` is a float: its session runs, and its report reloads
    to an equal config."""
    config = HarnessConfig(d=3, protocol=Protocol.DUAL_FAMILY, rounds=100,
                           posttest_fraction=np.float64(0.5))
    document = json.loads(canonical_json(build_document(config, run_trials(config))))
    assert config_from_document(document) == config


def test_config_bounds_rounds():
    """At most 2**32 rounds, refused before any block is planned."""
    assert original(rounds=2 ** 32).rounds == 2 ** 32
    with pytest.raises(ValueError):
        original(rounds=2 ** 32 + 1)


def test_weights_with_an_overflowing_sum_are_refused():
    """Two weights of 1e308 sum to inf and would normalise every weight to 0."""
    with pytest.raises(ValueError, match="finite sum"):
        HarnessConfig(d=3, protocol=Protocol.ORIGINAL, rounds=1000,
                      message_distribution={"comp": 1e308, "q0": 1e308})
    weights = np.ones(8)
    weights[:2] = 1e308
    with pytest.raises(ValueError, match="finite sum"):
        dual_family_detection_probability(3, message_weights=weights)


# Per protocol: the one attack it admits besides off, and the fractions it needs.
_GATE = {
    Protocol.ORIGINAL: (EveMode.INTERCEPT, {}),
    Protocol.TOMOGRAPHIC: (EveMode.INTERCEPT,
                           {"pretest_fraction": 0.2, "posttest_fraction": 0.5}),
    Protocol.DUAL_FAMILY: (EveMode.DUAL_FAMILY, {"posttest_fraction": 0.5}),
}


def test_config_rejects_mismatched_attacks():
    """Of all nine (protocol, eve) pairs, each built with the fractions its
    protocol needs, a protocol accepts eve off and its own attack, and
    refuses the other by naming itself, the attack it admits and the one
    given."""
    for protocol, (attack, fractions) in _GATE.items():
        for eve in EveMode:
            build = lambda: HarnessConfig(d=2, protocol=protocol, rounds=10, eve=eve,
                                          **fractions)
            if eve in (EveMode.OFF, attack):
                assert build().eve is eve
                continue
            message = (f"protocol {protocol.value} admits eve off or {attack.value}, "
                       f"not {eve.value}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()


def test_config_fraction_requirements():
    with pytest.raises(ValueError):
        HarnessConfig(d=2, protocol=Protocol.TOMOGRAPHIC, rounds=10,
                      posttest_fraction=0.5)
    with pytest.raises(ValueError):
        HarnessConfig(d=2, protocol=Protocol.TOMOGRAPHIC, rounds=10,
                      pretest_fraction=0.2)
    with pytest.raises(ValueError):
        HarnessConfig(d=2, protocol=Protocol.DUAL_FAMILY, rounds=10)
    with pytest.raises(ValueError):
        original(posttest_fraction=0.5)   # no verification step to tune
    with pytest.raises(ValueError):
        original(pretest_fraction=0.2)
    with pytest.raises(ValueError):
        HarnessConfig(d=2, protocol=Protocol.DUAL_FAMILY, rounds=10,
                      posttest_fraction=1.0)


def test_config_alphabet_tracks_protocol():
    assert len(original().alphabet()) == 3
    dual = HarnessConfig(d=2, protocol=Protocol.DUAL_FAMILY, rounds=10,
                         posttest_fraction=0.5)
    assert len(dual.alphabet()) == 6
    assert {b.family for b in dual.alphabet()} == {Family.PLAIN, Family.HAT}


def test_config_message_weights():
    assert_array_equal(original().message_weights(), np.ones(3))
    cfg = original(message_distribution={"comp": 1.0, "q1": 3.0})
    assert_allclose(cfg.message_weights(), [1.0, 0.0, 3.0])
    with pytest.raises(ValueError):
        original(message_distribution="lumpy")
    with pytest.raises(ValueError):
        original(message_distribution={"q7": 1.0})
    with pytest.raises(ValueError):
        original(message_distribution={"hat-q0": 1.0})  # wrong family
    with pytest.raises(ValueError):
        original(message_distribution={"q0": -1.0})
    with pytest.raises(ValueError):
        original(message_distribution={"q0": 0.0})


@pytest.mark.parametrize("weight", [np.float32(0.5), np.float16(2.0), Fraction(1, 3), 3],
                         ids=["float32", "float16", "Fraction", "int"])
def test_a_weight_of_any_real_type_is_range_tested_as_a_float(weight):
    """A real weight of another type builds its config without a warning, as
    its float; one past the largest float is refused, not an overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = original(message_distribution={"comp": weight, "q0": 1.0})
        assert_array_equal(cfg.message_weights(), [float(weight), 1.0, 0.0])
    for huge in (10 ** 400, Fraction(10 ** 400, 3)):
        with pytest.raises(ValueError, match="finite number >= 0"):
            original(message_distribution={"comp": huge})


# ---------------------------------------------------------------------------
# Reference distributions and the comparison statistic
# ---------------------------------------------------------------------------

def test_analytic_distribution_validation():
    with pytest.raises(ValueError):
        AnalyticDistribution(("a", "b"), np.array([1.0]))
    with pytest.raises(ValueError):
        AnalyticDistribution(("a", "b"), np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        AnalyticDistribution(("a", "b"), np.array([0.6, 0.6]))
    dist = AnalyticDistribution(("a", "b"), np.array([0.25, 0.75]))
    assert dist.as_mapping() == {"a": 0.25, "b": 0.75}


def test_analytic_outcome_distribution_wraps_exact_table():
    for d in (2, 3):
        for basis in (BasisId(Family.PLAIN, 0), BasisId(Family.HAT, None)):
            dist = analytic_outcome_distribution(d, basis)
            assert dist.labels == pair_outcome_labels(d)
            assert_allclose(dist.probabilities,
                            pair_outcome_probs(d, basis.family, basis))
            assert abs(dist.as_mapping()[(0, 0)] - 1.0 / d) < 1e-12


@pytest.mark.parametrize("basis", ["comp", None, (Family.PLAIN, None)])
def test_analytic_outcome_distribution_refuses_a_basis_that_is_not_a_basis_id(basis):
    with pytest.raises(TypeError, match="bob_basis must be a BasisId"):
        analytic_outcome_distribution(3, basis)


def test_stream_derivation_pure_and_decoupled():
    a = derive_round_stream(42, 7).random(5)
    b = derive_round_stream(42, 7).random(5)
    c = derive_round_stream(42, 8).random(5)
    d = derive_round_stream(43, 7).random(5)
    assert_allclose(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)
    with pytest.raises(ValueError):
        derive_round_stream(42, -1)


@pytest.mark.parametrize("seed,index", [(True, 0), (0, True), (False, 3)])
def test_a_bool_seed_or_stream_index_is_refused(seed, index):
    """A bool is an int to numpy, so True drew the stream of seed 1."""
    with pytest.raises(TypeError, match="not a bool"):
        derive_round_stream(seed, index)


@pytest.mark.parametrize("seed,index,n", [(0, 0, 1), (1, 3, 7), (42, 7, 1000),
                                          (2 ** 40, 2 ** 40 + 5, 32768), (9, 123, 32768)])
def test_stream_raw_draws_are_the_uniform_draws(seed, index, n):
    """The session engine draws the top 53 bits of raw 64-bit words as
    k; the uniform draws of the same stream must be exactly k / 2^53."""
    k = derive_round_stream(seed, index).bit_generator.random_raw(n) >> 11
    u = derive_round_stream(seed, index).random(n)
    assert_array_equal(k.astype(np.float64), u * 2.0 ** 53,
                       err_msg="Generator.random() is no longer (random_raw() >> 11) / 2^53; "
                               "the session engine's integer draws need revisiting")


# ---------------------------------------------------------------------------
# Closed-form detection probability for the dual-family attack
# ---------------------------------------------------------------------------

def test_dual_detection_probability_frozen_values():
    assert_allclose(dual_family_detection_probability(2), float(Fraction(7, 24)), atol=1e-12)
    assert_allclose(dual_family_detection_probability(3), float(Fraction(11, 32)), atol=1e-12)
    assert_allclose(dual_family_detection_probability(5), float(Fraction(469, 1200)), atol=1e-12)


def test_dual_detection_probability_family_symmetric():
    for d in (2, 3):
        plain = dual_family_detection_probability(d, Family.PLAIN)
        hat = dual_family_detection_probability(d, Family.HAT)
        assert_allclose(plain, hat, atol=1e-12)


@pytest.mark.parametrize("eve_family", ["plain", "hat", None, 0])
def test_dual_detection_probability_refuses_a_family_that_is_not_a_family(eve_family):
    """A string or None must not quietly stand for the hat-family attack."""
    with pytest.raises(TypeError, match="eve_family must be a Family"):
        dual_family_detection_probability(3, eve_family)


def test_dual_detection_probability_matches_simulation():
    p = dual_family_detection_probability(2)
    cfg = HarnessConfig(d=2, protocol=Protocol.DUAL_FAMILY, rounds=30000,
                        posttest_fraction=0.5, seed=9, eve=EveMode.DUAL_FAMILY)
    report = run_trials(cfg)
    sigma = np.sqrt(p * (1 - p) / (report.sifted * 0.4))  # checked ~ half of sifted
    assert abs(report.detection_rate - p) < 5 * sigma


def test_dual_detection_probability_with_weights():
    """Loading all weight on one family cannot hide the attack either."""
    weights = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    p = dual_family_detection_probability(2, Family.PLAIN, weights)
    q = dual_family_detection_probability(2, Family.HAT, weights)
    assert p == 0.0          # matching family: attack invisible in plain traffic
    assert q > 0.25          # mismatched family: strongly visible


def _detection_by_loop(d, eve_family, weights):
    """The explicit sum over Bob's basis, the attacker's outcome and Alice's outcome."""
    decodes = [decode_oracle(d, 0, 0, 0, c, r) for c, r in pair_outcome_labels(d)]
    kept = wrong = 0.0
    for w, bob in zip(weights, basis_alphabet(d, (Family.PLAIN, Family.HAT))):
        for q, eve_decode in zip(pair_outcome_probs(d, eve_family, bob), decodes):
            if eve_decode < 0:
                continue   # the pair goes back untouched and Alice reads (0,0)
            resend = BasisId(eve_family, None if eve_decode == 0 else eve_decode - 1)
            # sifting keeps the rounds where Alice prepared Bob's family
            for p, alice_decode in zip(pair_outcome_probs(d, bob.family, resend), decodes):
                if alice_decode >= 0:
                    kept += w * q * p
                    wrong += w * q * p * (alice_decode != basis_code(bob))
    return wrong / kept


def test_dual_detection_probability_matches_explicit_sum():
    for d in (2, 3, 5, 7):
        for eve_family in (Family.PLAIN, Family.HAT):
            for weights in (None, np.arange(1.0, 2 * d + 3)):
                loop = _detection_by_loop(d, eve_family, np.ones(2 * d + 2)
                                          if weights is None else weights)
                assert_allclose(dual_family_detection_probability(d, eve_family, weights),
                                loop, rtol=0, atol=1e-14, err_msg=f"d={d} {eve_family}")


def test_a_warm_dual_detection_probability_holds_no_stacked_rows():
    """Warm, the d=31 contraction folds each cached row into the d + 1
    bases it decodes to, so it never holds a stack of d^2-cell rows per
    Bob basis, which would take 34 MB."""
    for family in Family:
        dual_family_detection_probability(31, family)
    tracemalloc.start()
    try:
        for family in Family:
            dual_family_detection_probability(31, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_dual_detection_probability_validates_weights():
    """Weights follow the message-weight rules: one per basis of both families."""
    assert dual_family_detection_probability(2, message_weights=np.ones(6)) \
        == dual_family_detection_probability(2)
    for bad in (np.ones(3), np.ones(9), np.ones((2, 3)), np.zeros(6),
                np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]),
                np.array([1.0, np.nan, 1.0, 1.0, 1.0, 1.0]),
                np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0])):
        with pytest.raises(ValueError):
            dual_family_detection_probability(2, message_weights=bad)


def test_sessions_at_d31_match_exact_rates():
    """The compiled engine reaches d = 31: both exact rates within 6 sigma."""
    d = 31
    report = run_trials(HarnessConfig(d=d, protocol=Protocol.ORIGINAL, rounds=40_000,
                                      eve=EveMode.INTERCEPT, seed=31))
    p = 1 / d + (d - 1) / d ** 2
    assert abs(report.inconclusive_rate - p) < 6 * np.sqrt(p * (1 - p) / report.rounds)
    cfg = HarnessConfig(d=d, protocol=Protocol.DUAL_FAMILY, rounds=40_000,
                        posttest_fraction=0.5, eve=EveMode.DUAL_FAMILY, seed=31)
    report = run_trials(cfg)
    checked = report.sifted * cfg.posttest_fraction   # expected number of checked rounds
    p = dual_family_detection_probability(d)
    assert abs(report.detection_rate - p) < 6 * np.sqrt(p * (1 - p) / checked)


# ---------------------------------------------------------------------------
# run_trials dispatch
# ---------------------------------------------------------------------------

def test_run_trials_matches_direct_session_call():
    cfg = original(rounds=2000, seed=3, eve=EveMode.INTERCEPT)
    direct, _ = run_trials(cfg, return_rounds=True)
    assert run_trials(cfg) == direct


def test_run_trials_worker_count_is_invisible():
    cfg = HarnessConfig(d=3, protocol=Protocol.TOMOGRAPHIC, rounds=4000,
                        pretest_fraction=0.25, posttest_fraction=0.5, seed=12)
    assert run_trials(cfg, workers=1) == run_trials(cfg, workers=4)
    with pytest.raises(ValueError):
        run_trials(cfg, workers=0)


@pytest.mark.parametrize("rounds", (10, 200_000))
@pytest.mark.parametrize("workers", (2.5, True))
def test_sessions_refuse_a_worker_count_that_is_not_an_int(monkeypatch, rounds, workers):
    """A float or bool worker count raises TypeError in ``run_trials`` before
    any block runs, also where enough CPUs would spread the blocks over
    threads.  (The CSV writer's count is an argparse int that the CLI
    checks.)"""
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(protocol, "_run_blocks", lambda *a: pytest.fail("a block ran"))
    cfg = HarnessConfig(d=3, protocol=Protocol.ORIGINAL, rounds=rounds, seed=2)
    for return_rounds in (False, True):
        with pytest.raises(TypeError, match="workers must be of type int"):
            run_trials(cfg, workers=workers, return_rounds=return_rounds)


def test_run_trials_return_rounds():
    cfg = original(rounds=250, seed=1)
    report, log = run_trials(cfg, return_rounds=True)
    assert len(log) == 250
    assert report.rounds == 250


def test_run_trials_message_distribution_steers_bob():
    cfg = original(rounds=300, seed=6,
                   message_distribution={"q0": 1.0})
    _, log = run_trials(cfg, return_rounds=True)
    assert all(log.alphabet[b] == BasisId(Family.PLAIN, 0) for b in log.basis)
