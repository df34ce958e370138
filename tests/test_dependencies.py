"""Dependency guard: what the package imports is what it declares.

Every third-party top-level module imported anywhere under ``src/repro``
(at module level or inside a function) must be named in
``pyproject.toml``'s ``[project] dependencies``, and every declared
dependency must be imported somewhere, so a dependency can neither be
used undeclared nor linger after its last import goes.  ``setup.py``
repeats the list for offline hosts and must repeat it exactly.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.fast

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parents[1]


def _requirement_name(requirement: str) -> str:
    """``"numpy>=1.24"`` -> ``"numpy"``: the PEP 508 name, normalised to
    the module it installs (true of every dependency declared so far)."""
    name = re.match(r"\s*([A-Za-z0-9][A-Za-z0-9._-]*)", requirement).group(1)
    return re.sub(r"[-_.]+", "_", name).lower()


def _declared(pyproject: Path) -> list[str]:
    """Requirement strings of ``[project] dependencies``."""
    with pyproject.open("rb") as fh:
        return list(tomllib.load(fh)["project"]["dependencies"])


def _setup_requires(setup_py: Path) -> list[str]:
    """The literal ``install_requires=[...]`` list of ``setup.py``."""
    for node in ast.walk(ast.parse(setup_py.read_text(encoding="utf-8"))):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{setup_py} has no install_requires")


def _third_party_imports(root: Path, package: str) -> set[str]:
    """Top-level modules imported under ``root`` that are neither the
    standard library nor ``package`` itself."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {name.partition(".")[0] for name in names}
    return found - {package} - sys.stdlib_module_names


def _mismatch(root: Path, package: str,
              requirements: list[str]) -> dict[str, set[str]]:
    """Imported but undeclared, and declared but never imported."""
    declared = set(map(_requirement_name, requirements))
    imported = _third_party_imports(root, package)
    return {"undeclared": imported - declared,
            "unused": declared - imported}


def test_imports_match_declared_dependencies():
    assert _mismatch(SRC_ROOT, "repro",
                     _declared(REPO_ROOT / "pyproject.toml")) == {
        "undeclared": set(), "unused": set()}


def test_setup_py_repeats_the_declared_dependencies():
    assert _setup_requires(REPO_ROOT / "setup.py") == \
        _declared(REPO_ROOT / "pyproject.toml")


def test_guard_actually_detects(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from . import mod\n")
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "import numpy as np\n"
        "from pkg.sub import thing\n"
        "def late():\n"
        "    import yaml\n"
        "    from scipy.linalg import solve\n"
        "    return yaml, solve\n")
    assert _mismatch(pkg, "pkg", ["numpy>=1.24", "scipy", "networkx>=3.0"]) \
        == {"undeclared": {"yaml"}, "unused": {"networkx"}}
    (tmp_path / "setup.py").write_text(
        "from setuptools import setup\n"
        "setup(name='pkg', install_requires=['numpy>=1.24'])\n")
    assert _setup_requires(tmp_path / "setup.py") == ["numpy>=1.24"]
