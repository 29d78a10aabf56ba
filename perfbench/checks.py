"""Correctness gates for the outputs the benchmark measures.

Each gate returns a list of failure messages; an empty list means the
output passed.  A ``Tally`` counts the operations and their failures.
Rates are compared with the paper's exact values within a fixed
z-bound, so a correct program fails a gate with probability below 1e-8
per rate.
"""

from __future__ import annotations

import csv
import math

Z_BOUND = 6.0

# Exact P(checked decode names the wrong basis | sifted round) under the
# dual-family attack with the attacker in the plain family, as returned by
# mubsig.harness.dual_family_detection_probability(d) when the benchmark
# was written.  smoke.py re-derives them from the program.
DETECTION_PROBABILITY = {
    3: 0.34374999999999956,
    5: 0.3908333333333349,
    7: 0.4061791383219983,
    11: 0.4295764462809937,
    13: 0.43099728796844405,
}

# Exact tables carry impossible outcomes as round-off of order 1e-17.
ZERO_PROBABILITY = 1e-9


class Tally:
    """Operations attempted and failed, with the first messages of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(f"{name}: {f}" for f in fails[:3])

    def merge(self, other: dict) -> None:
        """Add a tally another process returned as ``vars(tally)``."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.messages += other["messages"]


def _rate_failures(name: str, observed: float, exact: float, n: float) -> list[str]:
    if n < 1:
        return []
    sigma = math.sqrt(exact * (1.0 - exact) / n)
    if abs(observed - exact) > Z_BOUND * sigma + 1e-12:
        return [f"{name}={observed!r} lies more than {Z_BOUND} sigma from the "
                f"exact {exact!r} over about {n:.0f} trials"]
    return []


def session_failures(config: dict, results: dict) -> list[str]:
    """Gate one session's results against the exact statistics.

    ``config`` uses the CLI/report keys (dim, protocol, eve, rounds,
    pretest_fraction, posttest_fraction); ``results`` is the ``results``
    section of a report document.
    """
    d = config["dim"]
    eve = config["eve"]
    kept = results["sifted"]
    fails: list[str] = []
    if results["rounds"] != config["rounds"]:
        fails.append(f"report counts {results['rounds']} rounds, "
                     f"expected {config['rounds']}")
    if config["protocol"] in ("original", "tomographic"):
        signal = config["rounds"]
        if config["protocol"] == "tomographic":
            signal -= int(round(config["rounds"] * config["pretest_fraction"]))
        exact = 1 / d + (d - 1) / d ** 2 if eve == "intercept" else 1 / d
        fails += _rate_failures("inconclusive_rate", results["inconclusive_rate"],
                                exact, signal)
    else:
        if eve == "off":
            # matched rounds are estimated from the kept ones: kept = matched (1 - 1/d)
            fails += _rate_failures("inconclusive_rate", results["inconclusive_rate"],
                                    1 / d, kept / (1 - 1 / d))
        exact_detection = DETECTION_PROBABILITY[d] if eve == "dualfamily" else 0.0
        fails += _rate_failures("detection_rate", results["detection_rate"],
                                exact_detection, kept * config["posttest_fraction"])
    single_family = config["protocol"] != "dualfamily" or eve == "off"
    if single_family and kept and results["decode_accuracy"] != 1.0:
        fails.append(f"decode_accuracy={results['decode_accuracy']!r}, expected 1")
    return fails


def verify_failures(document: dict) -> list[str]:
    """Gate one ``mubsig verify --format json`` document."""
    fails = [f"verify check {c['name']} failed: {c.get('detail', '')}"
             for c in document.get("checks", []) if not c["passed"]]
    if not document.get("passed") and not fails:
        fails.append("verify reported failure")
    if not document.get("checks"):
        fails.append("verify ran no checks")
    return fails


def round_log_failures(text: str, rounds: int,
                       support: dict[str, set[tuple[int, int]]]) -> list[str]:
    """Gate one per-round CSV log.

    ``support[basis]`` holds the (c, r) outcomes with non-zero exact
    probability under ``analytic_outcome_distribution(d, basis)``.  A
    signal round is checked wherever the exact table applies: the
    receiver's outcome when the holder's family matches the basis that
    last acted on the pair (the sender's basis, or the attacker's resend
    basis), and the attacker's outcome when the sender used the attacker's
    (plain) family.
    An attacker with an inconclusive read returns the pair untouched, so
    the holder must then read (0, 0).
    """
    lines = text.splitlines()
    if len(lines) - 1 != rounds:
        return [f"CSV log has {len(lines) - 1} rows, expected {rounds}"]
    fails: list[str] = []
    for row in csv.DictReader(lines):
        if row["phase"] != "signal":
            continue
        family = row["alice_family"]
        outcome = (int(row["alice_outcome_c"]), int(row["alice_outcome_r"]))
        acting = row["bob_basis"]
        if row["eve_decode"]:
            eve_outcome = (int(row["eve_outcome_c"]), int(row["eve_outcome_r"]))
            if not acting.startswith("hat-") and eve_outcome not in support[acting]:
                fails.append(f"round {row['round']}: attacker outcome {eve_outcome} "
                             f"is impossible under basis {acting}")
            acting = row["eve_forward_basis"]
            if not acting:
                if outcome != (0, 0):
                    fails.append(f"round {row['round']}: untouched pair read {outcome}")
                continue
        if acting.startswith("hat-") == (family == "hat") and outcome not in support[acting]:
            fails.append(f"round {row['round']}: outcome {outcome} is impossible "
                         f"under basis {acting}")
        if len(fails) >= 5:
            break
    return fails
