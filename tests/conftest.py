"""Shared pytest plumbing.

The acceptance tests each register one verdict line through
record_criterion; the terminal-summary hook replays them as a block at
the end of the run, so a captured log always shows every criterion's
state even though passing tests swallow their stdout.

Each test call runs under a fixed time limit: a time loop that never ends
dumps every thread's traceback and ends the session with exit code 1,
instead of holding it until someone stops it.
"""

import contextlib
import faulthandler
import os
import sys

import pytest

_LINES = []
TEST_TIME_LIMIT_S = 60.0  # the slowest test takes about 2 s
_STDERR = None  # a descriptor of the session's stderr, which output capture does not redirect


def record_criterion(name: str, passed: bool, detail: str) -> str:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    _LINES.append(line)
    print(line)
    return line


@contextlib.contextmanager
def _exit_after(seconds: float, file=None):
    """Dump every thread's traceback to file (stderr by default) and exit
    the process with code 1 if the block is still running after seconds."""
    faulthandler.dump_traceback_later(seconds, exit=True, file=sys.stderr if file is None else file)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_configure(config):
    global _STDERR
    _STDERR = os.dup(sys.stderr.fileno())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _exit_after(TEST_TIME_LIMIT_S, _STDERR):
        yield


def pytest_terminal_summary(terminalreporter):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _LINES:
        terminalreporter.write_line(line)
