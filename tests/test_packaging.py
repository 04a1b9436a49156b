import importlib
import re
from pathlib import Path

import pytest

import langevin_kl

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _names(requirements: list[str]) -> list[str]:
    """Distribution names of PEP 508 requirement strings, version bounds dropped."""
    return [re.match(r"[A-Za-z0-9._-]+", r.strip()).group(0).lower() for r in requirements]


def test_pyproject_declares_numpy_as_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["version"] == langevin_kl.__version__
    assert _names(project["dependencies"]) == ["numpy"]
    assert {"scipy", "pytest", "hypothesis"} <= set(_names(project["optional-dependencies"]["test"]))


def test_package_all_is_the_module_all_lists_joined():
    """Each public name is declared once, in its module's __all__, and resolves on the package."""
    names = ("chain", "gaussian_oracle", "grid_oracle", "metrics", "planner", "potentials")
    modules = [importlib.import_module(f"langevin_kl.{name}") for name in names]
    assert langevin_kl.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(langevin_kl.__all__)) == len(langevin_kl.__all__)
    for name in langevin_kl.__all__:
        assert hasattr(langevin_kl, name), name
