import re
from pathlib import Path

import pytest

import langevin_kl

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _names(requirements: list[str]) -> list[str]:
    """Distribution names of PEP 508 requirement strings, version bounds dropped."""
    return [re.match(r"[A-Za-z0-9._-]+", r.strip()).group(0).lower() for r in requirements]


def test_pyproject_declares_numpy_as_the_only_runtime_dependency():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["version"] == langevin_kl.__version__
    assert _names(project["dependencies"]) == ["numpy"]
    assert {"scipy", "pytest", "hypothesis"} <= set(_names(project["optional-dependencies"]["test"]))
