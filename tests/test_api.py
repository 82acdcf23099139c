"""The public API surface: what `__all__` promises, and what it leaves out."""

import importlib
import pkgutil

import pytest

import circulant4

from helpers import run_python

ORACLES = (
    "exact_jets",
    "exact_geometry",
    "leading_principal_minors",
    "lower_index",
    "raise_index",
    "curvature_q_invariance_residual",
)

# every module of the package but __main__, which runs the command line
MODULES = ["circulant4"] + [
    f"circulant4.{info.name}"
    for info in pkgutil.iter_modules(circulant4.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"{name}.__all__ names missing {exported!r}"


def test_oracles_stay_out_of_the_public_api():
    assert not set(ORACLES) & set(circulant4.__all__)
    oracles = importlib.import_module("circulant4._oracles")
    for name in ORACLES:
        assert callable(getattr(oracles, name))
    for name in circulant4.__all__:
        value = getattr(circulant4, name)
        assert getattr(value, "__module__", None) != oracles.__name__, name
    for name in MODULES:
        assert "_oracles" not in getattr(importlib.import_module(name), "__all__", ())


def test_oracles_import_cleanly_on_their_own():
    result = run_python("-W", "error", "-c", "import circulant4._oracles")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_the_command_line_imports_no_oracle_and_no_fractions():
    # the exact route stays off the import path that every command pays for
    loaded = "sorted({'circulant4._oracles', 'fractions'} & set(sys.modules))"
    code = f"import sys, circulant4.cli; print({loaded})"
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
