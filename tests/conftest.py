import pytest

from dense import signal_rounds as _signal_rounds


@pytest.fixture(scope="session")
def signal_rounds():
    """Reads a RoundLog back round by round with the plain-integer decode
    oracle, independently of ``protocol.decode`` and the engine's code table."""
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
