import json
from pathlib import Path

import pytest

from mubsig.cli import main
from mubsig.verify import CheckResult, run_invariant_suite

EXPECTED_NAMES = (
    "field-arithmetic",
    "root-of-unity",
    "single-basis-orthonormality",
    "mutual-unbiasedness",
    "entangled-basis",
    "pair-reduced-states",
    "hadamard-root",
    "measurement-backaction",
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


# Pinned ``mubsig verify --format json`` documents.  attack-bookkeeping's
# assertion count depends on the single-round draws, so only its name,
# flag and detail are compared.
GOLDEN = Path(__file__).parent / "golden"
_DRAW_DEPENDENT_COUNTS = {"attack-bookkeeping"}


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_verify_document_matches_golden(d, capsys):
    assert main(["verify", "--dim", str(d), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"verify-d{d}.json").read_text())
    assert (got["dim"], got["passed"]) == (want["dim"], want["passed"]) == (d, True)
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert (g["passed"], g["detail"]) == (w["passed"], w["detail"]), g["name"]
        if g["name"] not in _DRAW_DEPENDENT_COUNTS:
            assert g["assertions"] == w["assertions"], g["name"]


def test_suite_and_cli_pass_at_d11(capsys):
    failures = [(r.name, r.detail) for r in run_invariant_suite(11) if not r.passed]
    assert failures == []
    assert main(["verify", "--dim", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[ok  ]") for line in lines[:-1])
    assert lines[-1].startswith(f"{len(EXPECTED_NAMES)}/{len(EXPECTED_NAMES)} checks passed")
