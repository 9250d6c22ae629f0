import pytest
from hypothesis import settings

from pulselab import load_catalog

# every property test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
