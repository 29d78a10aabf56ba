"""Property tests over generated sessions and config documents.

* A session's report is exactly what its round log says, when every
  round is read back with the scalar decode rule, and its CSV log has
  one row per round that says the same.
* Any JSON-like mapping either becomes a ``HarnessConfig`` or raises
  ``ValueError``, and quickly.
* A report's config echo rebuilds the config it came from.
"""

import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mubsig.bases import Family
from mubsig.harness import EveMode, HarnessConfig, Protocol, run_trials
from mubsig.report import build_document, canonical_json, config_from_document, round_log_csv

_PAIRS = (
    (Protocol.ORIGINAL, EveMode.OFF),
    (Protocol.ORIGINAL, EveMode.INTERCEPT),
    (Protocol.TOMOGRAPHIC, EveMode.OFF),
    (Protocol.TOMOGRAPHIC, EveMode.INTERCEPT),
    (Protocol.DUAL_FAMILY, EveMode.OFF),
    (Protocol.DUAL_FAMILY, EveMode.DUAL_FAMILY),
)


@st.composite
def session_configs(draw):
    """Valid configs: d in {2, 3, 5}, any protocol x Eve pair, 1-3000 rounds."""
    d = draw(st.sampled_from([2, 3, 5]))
    protocol, eve = draw(st.sampled_from(_PAIRS))
    fractions = {}
    if protocol is Protocol.TOMOGRAPHIC:
        # both phases must be nonempty: pick the pre-test length itself
        rounds = draw(st.integers(2, 3000))
        fractions["pretest_fraction"] = draw(st.integers(1, rounds - 1)) / rounds
    else:
        rounds = draw(st.integers(1, 3000))
    if protocol is not Protocol.ORIGINAL:
        fractions["posttest_fraction"] = draw(st.floats(0.01, 0.99))
    distribution = "uniform"
    labels = [b.text() for b in HarnessConfig(d, protocol, 1, **fractions).alphabet()]
    weights = draw(st.none() | st.lists(st.floats(0.0, 10.0), min_size=len(labels),
                                        max_size=len(labels)).filter(lambda w: sum(w) > 0))
    if weights is not None:
        distribution = dict(zip(labels, weights))
    return HarnessConfig(d=d, protocol=protocol, rounds=rounds, eve=eve,
                         seed=draw(st.integers(0, 2 ** 64 - 1)),
                         message_distribution=distribution, **fractions)


def _ratio(num, den):
    return num / den if den else 0.0


@settings(max_examples=40, deadline=None)
@given(session_configs())
def test_report_is_the_round_log_read_with_the_scalar_decode(signal_rounds, cfg):
    report, log = run_trials(cfg, return_rounds=True)
    rounds = signal_rounds(log)
    matched = [r for r in rounds if r.alice_prep_family is r.bob_basis.family]
    kept = [r for r in matched if r.alice_decode.is_conclusive]
    correct = [r for r in kept if r.alice_decode.matches_label(r.bob_basis)]
    eve_correct = [r for r in rounds if r.eve_decode is not None
                   and r.eve_decode.matches_label(r.bob_basis)
                   and r.bob_basis.family is Family.PLAIN]
    assert report.sifted == len(kept)
    assert report.decode_accuracy == _ratio(len(correct), len(kept))
    assert report.inconclusive_rate == _ratio(len(matched) - len(kept), len(matched))
    assert report.eve_information_rate == _ratio(len(eve_correct), len(rounds))
    if cfg.posttest_fraction is None:   # every conclusive round is checked
        assert report.detection_rate == _ratio(len(kept) - len(correct), len(kept))

    rows = list(csv.DictReader(io.StringIO(round_log_csv(log))))
    assert len(rows) == cfg.rounds
    signal = rows[log.pretest.size:]
    assert [row["phase"] for row in signal] == ["signal"] * len(rounds)
    assert [(row["bob_basis"], row["alice_family"], row["decode"], row["eve_decode"])
            for row in signal] == [
        (r.bob_basis.text(), r.alice_prep_family.value, r.alice_decode.text(),
         "" if r.eve_decode is None else r.eve_decode.text()) for r in rounds]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


def _mostly(plausible):
    """Plausible values three times in four, any JSON value otherwise."""
    return st.integers(0, 3).flatmap(lambda i: plausible if i else _JSON)


_WEIGHTS = st.dictionaries(
    st.sampled_from(["comp", "q0", "q1", "q2", "q7", "hat-comp", "hat-q1", "zonk"]),
    _mostly(st.floats(0.0, 1e308) | st.integers(-1, 10 ** 400)), max_size=4)
_FRACTION = st.none() | st.floats(0.01, 0.99) | st.floats()
_REQUIRED = {
    "dim": _mostly(st.sampled_from([2, 3, 5, 7, 251, 257, 4, 0, -5, 3.0, 3.5, 10 ** 18 + 3,
                                    float("inf"), float("nan")])),
    "protocol": _mostly(st.sampled_from(["original", "tomographic", "dualfamily"])),
    "rounds": _mostly(st.integers(-3, 10 ** 6) | st.sampled_from([2 ** 32, 2 ** 32 + 1, 10.0,
                                                                  1e12, float("inf")])),
}
_OPTIONAL = {
    "eve": _mostly(st.sampled_from(["off", "intercept", "dualfamily"])),
    "seed": _mostly(st.integers(-3, 2 ** 65)),
    "pretest_fraction": _mostly(_FRACTION),
    "posttest_fraction": _mostly(_FRACTION),
    "message_distribution": _mostly(st.just("uniform") | _WEIGHTS),
}
_DOCUMENTS = st.builds(
    lambda fields, extra, wrap: {"config": {**fields, **extra}} if wrap else {**fields, **extra},
    st.fixed_dictionaries(_REQUIRED, optional=_OPTIONAL) | st.dictionaries(st.text(), _JSON),
    st.just({}) | st.dictionaries(st.text(max_size=6), _JSON, max_size=1),
    st.booleans())


@settings(max_examples=200, deadline=1000)
@given(_DOCUMENTS)
def test_any_json_mapping_gives_a_config_or_value_error(document):
    try:
        config = config_from_document(document)
    except ValueError:
        return
    assert isinstance(config, HarnessConfig)


@settings(max_examples=40, deadline=None)
@given(session_configs())
def test_report_config_echo_rebuilds_the_config(cfg):
    document = build_document(cfg, run_trials(cfg))
    assert config_from_document(document) == cfg
    assert config_from_document(json.loads(canonical_json(document))) == cfg
