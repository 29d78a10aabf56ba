"""Property tests over generated sessions and config documents.

* A session's report is exactly what its round log says, when every
  round is read back with the plain-integer decode oracle, and its CSV
  log has one row per round that says the same.
* Any JSON-like mapping either becomes a ``HarnessConfig`` or raises
  ``ValueError``, and quickly.
* A report's config echo rebuilds the config it came from.
* The guide-table inverse CDF is the float ``searchsorted`` on any
  probability rows, however coarse its guide.
"""

import csv
import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from mubsig import protocol
from mubsig.bases import Family
from mubsig.finite_field import MAX_DIM
from mubsig.harness import EveMode, HarnessConfig, Protocol, run_trials
from mubsig.quantum import TOLERANCE, _cdf
from mubsig.report import build_document, canonical_json, config_from_document, round_log_csv
from dense import basis_code, decode_text

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
    labels = [b.text() for b in HarnessConfig(d, protocol, rounds, **fractions).alphabet()]
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
    kept = [r for r in matched if r.alice_decode >= 0]
    correct = [r for r in kept if r.alice_decode == basis_code(r.bob_basis)]
    eve_correct = [r for r in rounds if r.eve_decode == basis_code(r.bob_basis)
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
        (r.bob_basis.text(), r.alice_prep_family.value, decode_text(r.alice_decode),
         "" if r.eve_decode is None else decode_text(r.eve_decode)) for r in rounds]


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


@st.composite
def probability_rows(draw):
    """1-4 normalized rows of 1-400 cells: zero cells, cells far below one
    guide bucket (some below TOLERANCE) and ordinary cells, in drawn shares."""
    n_rows, n_cells = draw(st.integers(1, 4)), draw(st.integers(1, 400))
    zero, tiny = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32), label="seed"))
    kind = rng.random((n_rows, n_cells))
    weights = np.where(kind < zero, 0.0, np.where(
        kind < zero + tiny * (1 - zero), 10.0 ** rng.uniform(-9, -5, kind.shape),
        rng.uniform(1e-3, 1.0, kind.shape)))
    weights[:, -1] = np.where(weights.any(axis=1), weights[:, -1], 1.0)
    return weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(probability_rows(), st.data())
def test_guide_lookup_is_the_float_searchsorted(probs, data):
    """Random and cell-edge draws; the guide's size is drawn down to one bucket
    per row, so most draws take the searchsorted fallback."""
    n_rows, n_cells = probs.shape
    cap = data.draw(st.integers(n_rows + 1, 1 << 20), label="guide entries")
    cum = _cdf(probs)
    with mock.patch.object(protocol, "_GUIDE_ENTRIES", cap):
        lookup = protocol._inverse_cdf(cum)
    assert lookup.start.size == lookup.edge.size < cap
    unit = 2 ** 53
    k = (cum * unit).ravel()
    k = np.concatenate([np.floor(k) - 1, np.floor(k), np.ceil(k), np.ceil(k) + 1])
    edges = np.clip(k, 0, unit - 1).reshape(4, n_rows, n_cells).transpose(1, 0, 2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    k = np.concatenate([edges.reshape(n_rows, -1), rng.integers(0, unit, (n_rows, 200)),
                        np.tile([0.0, unit - 1], (n_rows, 1))], axis=1).astype(np.int64)
    rows = np.repeat(np.arange(n_rows), k.shape[1])
    got = lookup(rows, k.ravel(), np.empty(k.size, dtype=np.int64), protocol._Scratch(k.size))
    expected = np.concatenate([np.searchsorted(c, x / unit, side="right")
                               for c, x in zip(cum, k)])
    assert_array_equal(got, expected)
    assert (probs[rows, got] >= TOLERANCE).all()


def test_guide_stays_within_its_entry_limit_at_max_dim():
    """The bucket rule, at the largest table (dual-family, MAX_DIM) and the
    largest pre-test row, without building either."""
    table_rows = 2 * (1 + 2 * (MAX_DIM + 1))
    pretest_cells = ((MAX_DIM + 1) * MAX_DIM) ** 2
    small = protocol._inverse_cdf(np.array([0.5, 1.0]))
    bucket_bytes = small.start.itemsize + small.edge.itemsize
    for rows, cells in ((table_rows, MAX_DIM ** 2), (1, pretest_cells), (1, 2), (58, 169)):
        bits = protocol._bucket_bits(rows, cells)
        assert 0 <= bits <= 53
        assert (rows << bits) + 1 <= protocol._GUIDE_ENTRIES == 1 << 20
        assert (rows << bits) * bucket_bytes <= 16 << 20   # start and edge int64
        # the smallest power of two >= 8 * cells, unless that overflows the limit
        assert 1 << bits >= 8 * cells or (rows << (bits + 1)) + 1 > 1 << 20
        assert bits == 0 or 1 << (bits - 1) < 8 * cells
    assert table_rows == 1010 and table_rows * 2 ** 53 < 2 ** 63
