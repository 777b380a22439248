"""The suite's own pytest settings: a failing property test fails only itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_example_leaves_the_run_going(tmp_path):
    """Every warning is an error, yet hypothesis's report of a failure raises none."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8", newline="")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout
