"""Report which kernel backend the suite ran on: wall-clock budgets in the
acceptance tests pass or fail with it."""

import sigmatau


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"sigmatau backend: {sigmatau.BACKEND}")
