import pytest

from dense import signal_rounds as _signal_rounds
from mubsig.finite_field import _clear_caches


@pytest.fixture(scope="session")
def signal_rounds():
    """Reads a RoundLog back round by round with the plain-integer decode
    oracle, independently of ``protocol.decode`` and the engine's code table."""
    return _signal_rounds


@pytest.fixture
def fresh_caches():
    """Every per-dimension cache empty, and emptied again on teardown, for a
    test that counts cache entries or patches what a cached function reads."""
    _clear_caches()
    yield
    _clear_caches()


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
