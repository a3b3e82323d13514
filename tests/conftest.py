"""Shared pytest hooks for the test suite."""

import signal
import sys

import pytest

ACCEPTANCE_LINES = []

# Seconds a test body may run.  The slowest test takes about 10 s; an engine
# that stops making progress fails the test here instead of hanging the suite.
# Under a line tracer (tests/line_reach.py), which makes Python several times
# slower (the slowest test took 57 s there), the limit is 5 times as long.
TEST_TIME_LIMIT_S = 120
TRACED_FACTOR = 5


class TimeLimitExceeded(BaseException):
    """Not an Exception, so hypothesis reports it without shrinking, which
    would run each shrunk example into the limit again."""


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    limit = TEST_TIME_LIMIT_S * (TRACED_FACTOR if sys.gettrace() else 1)

    def expire(_signum, _frame):
        raise TimeLimitExceeded(f"test ran past its {limit}-s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
