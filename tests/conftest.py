"""Shared test plumbing: the acceptance suite records one verdict line per
criterion and this hook prints them in the terminal summary, pass or fail;
the ``collector`` fixture runs a test with the cyclic collector on and off."""

import gc

import pytest

ACCEPTANCE_LINES: list = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """Set the collector on or off for the test, and put it back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()
