"""Every demo runs to completion against the current API."""

import os

import pytest

from helpers import REPO_ROOT, run_python

DEMOS = sorted(
    name for name in os.listdir(os.path.join(REPO_ROOT, "demos")) if name.endswith(".py")
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo):
    result = run_python(os.path.join(REPO_ROOT, "demos", demo))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
