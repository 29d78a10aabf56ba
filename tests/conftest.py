from collections import namedtuple

import pytest

from mubsig.bases import Family, pair_outcome_labels
from mubsig.finite_field import PrimeDim
from mubsig.protocol import decode

SignalRound = namedtuple("SignalRound", "bob_basis alice_prep_family alice_outcome "
                                        "alice_decode eve_outcome eve_decode")


def _signal_rounds(log):
    """The signal rounds of a RoundLog, each outcome read by the scalar decode rule."""
    dim = PrimeDim(log.d)
    prep = (dim.element(0),) * 3
    labels = pair_outcome_labels(log.d)
    decodes = [decode(prep, (dim.element(c), dim.element(r))) for c, r in labels]
    eve = [None] * log.basis.size if log.eve_outcome is None else log.eve_outcome.tolist()
    return [SignalRound(log.alphabet[b], (Family.PLAIN, Family.HAT)[f], labels[o], decodes[o],
                        None if e is None else labels[e], None if e is None else decodes[e])
            for f, b, o, e in zip(log.family.tolist(), log.basis.tolist(),
                                  log.outcome.tolist(), eve)]


@pytest.fixture(scope="session")
def signal_rounds():
    """Reads a RoundLog back round by round, independently of the engine's code table."""
    return _signal_rounds

_ACCEPTANCE_RESULTS = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.get_closest_marker("acceptance"):
        _ACCEPTANCE_RESULTS.append((item.name, rep.passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")
