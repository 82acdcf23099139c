"""The test suite's own configuration: its warning filters and its plugins."""

import os
import textwrap

from helpers import REPO_ROOT, run_python

PROBE = '''\
import warnings

from hypothesis import given, strategies as st


def test_plain_failure():
    assert False


@given(st.integers())
def test_hypothesis_failure(n):
    assert n < 0


def test_deprecation_is_an_error():
    warnings.warn("deprecated", DeprecationWarning)


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_ends_no_session(tmp_path):
    # hypothesis reports a failing @given test through a module whose import
    # warns of a deprecation; the suite's filters must not turn that into an
    # internal error that stops every later test
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    code = textwrap.dedent(f"""
        import os, sys
        import pytest
        sys.path.insert(0, {os.path.join(REPO_ROOT, "tests")!r})
        os.chdir({str(tmp_path)!r})  # hypothesis keeps its database here
        sys.exit(pytest.main([
            "-q", "-p", "no:cacheprovider", "-p", "conftest",
            "-c", {os.path.join(REPO_ROOT, "pyproject.toml")!r}, {str(probe)!r},
        ]))
    """)
    result = run_python("-c", code)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    # a deprecation is still an error in a test
    assert "3 failed, 1 passed" in result.stdout, result.stdout
    assert result.returncode == 1
