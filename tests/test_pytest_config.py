"""The repository's pytest settings report a failing property test as one
failure and let the rest of the run go on, and a test that never ends
stops the run with a traceback."""

import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

_SHRINKING_FAILURE = textwrap.dedent("""
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_shrinks(n):
        assert n < 10

    def test_after():
        pass
""")


def test_a_shrunk_hypothesis_failure_does_not_abort_the_run(tmp_path):
    # To report a shrunk failure Hypothesis imports libcst and mypy_extensions,
    # which warn DeprecationWarning; the settings' error::DeprecationWarning
    # must not turn that into an INTERNALERROR that stops the session.
    test_file = tmp_path / "test_shrinking.py"
    test_file.write_text(_SHRINKING_FAILURE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    report = out.stdout + out.stderr
    assert "INTERNALERROR" not in report, report[-3000:]
    assert "1 failed, 1 passed" in out.stdout, report[-3000:]


_ENDLESS_LOOP = textwrap.dedent("""
    from conftest import _exit_after

    with _exit_after(0.5):
        while True:
            pass
""")


def test_a_test_that_never_ends_exits_with_its_traceback():
    # conftest runs each test call under _exit_after: a time loop that
    # never ends dumps where it is and ends the process
    out = subprocess.run([sys.executable, "-c", _ENDLESS_LOOP], capture_output=True, text=True,
                         cwd=TESTS, timeout=10)
    assert out.returncode != 0
    assert "most recent call first" in out.stderr, out.stderr
    assert 'File "<string>"' in out.stderr, out.stderr  # the loop's frame
