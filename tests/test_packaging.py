"""pyproject.toml against the package it describes."""
import importlib
from pathlib import Path

import pytest

import tdcrecon

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def load():
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)


def test_script_targets_import():
    # an installed console script fails at its first run when its target
    # module or function is missing
    for name, target in load()["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_version_matches_package():
    assert load()["project"]["version"] == tdcrecon.__version__
