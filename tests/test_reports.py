"""Report bytes: golden reports and the JSON writer against json.dumps."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circulant4.cli import main
from circulant4.scan import _write_json

from helpers import REPO_ROOT

GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "data", "golden")
CUBIC = os.path.join(REPO_ROOT, "perfbench", "manifolds", "cubic.cfg")
PERTURBED = os.path.join(REPO_ROOT, "perfbench", "manifolds", "perturbed.cfg")
STEEP = os.path.join(REPO_ROOT, "tests", "data", "steep.cfg")
# a grid through both excluded lines of example, with every ordering
# failure and two valid points
EXAMPLE_BOX = "--box=-1:1:3,-1:1:3,-1:2:4,-1:1:3"

# golden file: (argv, exit code). The files hold the stdout of `main` as
# rendered by json.dumps(indent=2) and the csv module, before the JSON
# writer replaced json.dumps; any change to their bytes is a report change.
GOLDEN = {
    "cubic-scan.json": (["scan", "--manifold", CUBIC, "--box=-1:1:3,-1:1:3,-1:1:3,-1:1:3"], 1),
    "example-scan.json": (["scan", "--manifold", "example", EXAMPLE_BOX], 1),
    "example-scan.csv": (["scan", "--manifold", "example", EXAMPLE_BOX, "--format", "csv"], 1),
    "example-check.json": (["check", "--manifold", "example", "--point", "1,0.1,2,0.2"], 0),
    "perturbed-check.json": (["check", "--manifold", PERTURBED, "--point", "1,0.1,2,0.2"], 1),
    # an ordinary point, an invalid one, an overflowing inverse and an
    # overflowing gradient; then an overflowing Hessian
    "steep-scan.json": (["scan", "--manifold", STEEP, "--box", "1:10.6:2,1:10.6:2,0:0:1,0:0:1"], 1),
    "steep-check.json": (["check", "--manifold", STEEP, "--point", "10.5,10.5,0,0"], 1),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden_bytes(name, capsys):
    argv, code = GOLDEN[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(os.path.join(GOLDEN_DIR, name), "rb") as golden:
        assert captured.out.encode("utf-8") == golden.read()


def _written(value) -> str:
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


_scalars = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7fé \U0001f600')),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300)
@given(_values)
@example({"a": [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1]})
@example([float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float64(-0.0)])
@example({"": {}, "ü\n\"": [], "x": [[], {}, ()], "n": [None, True, False, 0, -(10**30)]})
def test_writer_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [object(), {1, 2}, b"bytes", np.int64(1), np.bool_(True), [1j], {"a": [np.array([1.0])]}]
)
def test_writer_rejects_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _written(value)


def test_writer_needs_string_keys():
    # json.dumps would turn the key into "1"; reports only have string keys
    with pytest.raises(TypeError):
        _written({1: 2})
