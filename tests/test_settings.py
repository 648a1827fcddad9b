"""The repository's pytest settings report every failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n


def test_plain():
    assert True
'''


def test_a_failing_property_test_hides_no_later_test(tmp_path):
    # Reporting a falsifying generated example imports libcst, which warns
    # that mypy_extensions.TypedDict is deprecated; under the "error"
    # filter alone that stopped the session with INTERNALERROR, so the
    # plain test after it never ran and no example was printed.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example: test_always_fails(" in out, out
    assert "INTERNALERROR" not in out, out
