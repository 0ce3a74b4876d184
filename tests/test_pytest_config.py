"""The repository's pytest configuration reports a failing property test.

pyproject.toml turns every warning into an error. When a hypothesis test
fails, hypothesis imports libcst to describe the failing example, and that
import warns; as an error, the warning used to abort the session with
INTERNALERROR, with no test name and no example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "Falsifying example" in output
