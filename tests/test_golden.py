"""Golden reports: canonical JSON documents and CSV round logs pinned byte for byte.

Every case under ``tests/golden/`` was written by the session engine and
must be reproduced exactly: a refactor of the sampling code that keeps
the order of random draws leaves every file here untouched.

``sweep.json`` pins longer sessions at larger d by digest alone: for each
config of ``SWEEP``, the sha256 of its canonical report, the sha256 of its
CSV log and the log's row count.

Regenerate (only for a deliberate change of the sampled statistics) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from mubsig.harness import EveMode, HarnessConfig, Protocol, run_trials
from mubsig.report import build_document, canonical_json, round_log_csv

GOLDEN = Path(__file__).parent / "golden"
BIG_SEED = 2 ** 63 + 5
LONG_ROUNDS = 70_000   # more than two BLOCK_ROUNDS blocks

_PAIRS = (
    (Protocol.ORIGINAL, EveMode.OFF),
    (Protocol.ORIGINAL, EveMode.INTERCEPT),
    (Protocol.TOMOGRAPHIC, EveMode.OFF),
    (Protocol.TOMOGRAPHIC, EveMode.INTERCEPT),
    (Protocol.DUAL_FAMILY, EveMode.OFF),
    (Protocol.DUAL_FAMILY, EveMode.DUAL_FAMILY),
)


def _config(d, protocol, eve, rounds, seed, **kw):
    fractions = {}
    if protocol is Protocol.TOMOGRAPHIC:
        fractions = {"pretest_fraction": 0.2, "posttest_fraction": 0.5}
    elif protocol is Protocol.DUAL_FAMILY:
        fractions = {"posttest_fraction": 0.5}
    return HarnessConfig(d=d, protocol=protocol, rounds=rounds, eve=eve,
                         seed=seed, **fractions, **kw)


def _cases():
    """(name, config, workers, include_tables) for every pinned session."""
    cases = []
    for d in (2, 3, 5):
        for seed in (7, BIG_SEED):
            for protocol, eve in _PAIRS:
                name = f"{protocol.value}-{eve.value}-d{d}-s{seed}"
                cases.append((name, _config(d, protocol, eve, 300, seed), 1, False))
    for protocol, eve, d in ((Protocol.TOMOGRAPHIC, EveMode.INTERCEPT, 5),
                             (Protocol.DUAL_FAMILY, EveMode.DUAL_FAMILY, 3)):
        cfg = _config(d, protocol, eve, LONG_ROUNDS, 11)
        for workers in (1, 2):
            cases.append((f"long-{protocol.value}-{eve.value}-d{d}-w{workers}",
                          cfg, workers, False))
    weighted = {"comp": 1.0, "q0": 2.0, "q2": 0.25, "hat-comp": 3.0, "hat-q1": 0.5}
    cases.append(("weighted-dualfamily-dualfamily-d3",
                  _config(3, Protocol.DUAL_FAMILY, EveMode.DUAL_FAMILY, 300, 5,
                          message_distribution=weighted), 1, False))
    cases.append(("tables-dualfamily-off-d3",
                  _config(3, Protocol.DUAL_FAMILY, EveMode.OFF, 120, 3), 1, True))
    return cases


CASES = _cases()

# Three-block sessions at the dimensions the report goldens do not reach,
# d = 31 among them, where the guide tables fall back to their search.
SWEEP = {f"{protocol.value}-{eve.value}-d{d}-s{seed}":
         _config(d, protocol, eve, LONG_ROUNDS, seed)
         for d in (7, 13, 31) for seed in (11, BIG_SEED) for protocol, eve in _PAIRS}


def _render(config, workers, include_tables):
    report, records = run_trials(config, workers=workers, return_rounds=True)
    text = canonical_json(build_document(config, report, include_tables=include_tables))
    log = round_log_csv(records).encode()
    return text, {"sha256": hashlib.sha256(log).hexdigest(), "rows": log.count(b"\n") - 1}


def _digest(config, workers):
    text, log = _render(config, workers, False)
    return {"report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "log_sha256": log["sha256"], "rows": log["rows"]}


def _logs():
    return json.loads((GOLDEN / "round_logs.json").read_text())


@pytest.mark.parametrize("name,config,workers,include_tables", CASES,
                         ids=[case[0] for case in CASES])
def test_golden_report_and_round_log(name, config, workers, include_tables):
    text, log = _render(config, workers, include_tables)
    assert text == (GOLDEN / f"{name}.json").read_text()
    assert log == _logs()[name]
    if not include_tables:
        plain = canonical_json(build_document(config, run_trials(config, workers=workers)))
        assert plain == text


@pytest.mark.parametrize("name", SWEEP)
def test_sweep_digests(name):
    expected = json.loads((GOLDEN / "sweep.json").read_text())[name]
    for workers in (1, 2):
        assert _digest(SWEEP[name], workers) == expected


def test_golden_directory_has_no_strays():
    names = {case[0] for case in CASES}
    verify = {f"verify-d{d}" for d in (2, 3, 5, 7, 11)}   # pinned by test_verify.py
    pinned = names | {"round_logs", "sweep"} | verify
    assert {p.stem for p in GOLDEN.glob("*.json")} == pinned
    assert set(json.loads((GOLDEN / "sweep.json").read_text())) == set(SWEEP)
    assert set(_logs()) == names


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    logs = {}
    for name, config, workers, include_tables in CASES:
        text, logs[name] = _render(config, workers, include_tables)
        (GOLDEN / f"{name}.json").write_text(text)
    (GOLDEN / "round_logs.json").write_text(json.dumps(logs, indent=2, sort_keys=True) + "\n")
    sweep = {name: _digest(config, 1) for name, config in SWEEP.items()}
    (GOLDEN / "sweep.json").write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n")
