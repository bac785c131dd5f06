"""pyproject.toml against the package it describes and the CI that installs it."""
import importlib
import re
from pathlib import Path

import pytest

import tdcrecon

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


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


def test_description_matches_package():
    # the description used to advertise a complex the package does not build
    summary = tdcrecon.__doc__.splitlines()[0].rstrip(".")
    assert load()["project"]["description"].startswith(summary)


def test_ci_installs_the_declared_dependencies():
    # the workflow names its packages by hand; read as plain text, since CI
    # installs no YAML reader
    project = load()["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    names = {re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in declared}
    installs = [
        line.split("pip install", 1)[1].split()
        for line in WORKFLOW.read_text().splitlines()
        if "pip install" in line
    ]
    assert len(installs) == 1, installs
    assert {word.lower() for word in installs[0] if not word.startswith("-")} == names
