"""The test settings themselves: a failing test must not end the session."""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # pyproject.toml turns warnings into errors; a warning raised while
    # hypothesis reports a failure must not become an INTERNALERROR that
    # skips every later test
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "Falsifying example" in proc.stdout
