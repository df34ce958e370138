"""One tick-loop driver in ``repro.epihiper``.

A :class:`~repro.epihiper.engine.Simulation` is a lane: per-instance
state and the surface interventions use, but no tick loop.  The one
class that steps, flushes and checkpoints is
:class:`~repro.epihiper.batch.BatchedSimulation`, and a solo run is a
batch of one.  The guard fails when a second class grows any of the
driver's hooks back; ``tests/core/test_execution_matrix.py`` holds its
twin for ``repro.core``'s one ``.step()`` caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.fast

SRC_EPIHIPER = Path(repro.__file__).resolve().parent / "epihiper"

#: The methods only the tick-loop driver defines.
DRIVER_HOOKS = frozenset({"step", "save_state", "restore_state", "flush"})


def _driver_classes(root: Path) -> list[str]:
    """``file:Class`` of every class defining a driver hook."""
    out = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name in DRIVER_HOOKS for fn in cls.body):
                out.append(f"{path.name}:{cls.name}")
    return out


def test_exactly_one_tick_loop_driver_in_epihiper():
    assert _driver_classes(SRC_EPIHIPER) == ["batch.py:BatchedSimulation"]


def test_driver_class_lint_actually_detects(tmp_path):
    (tmp_path / "two.py").write_text(
        "class Lane:\n    def flush(self):\n        pass\n\n"
        "class Driver:\n    def step(self):\n        pass\n\n"
        "class Plain:\n    def run(self):\n        pass\n\n"
        "def save_state():\n    pass\n", encoding="utf-8")
    assert _driver_classes(tmp_path) == ["two.py:Lane", "two.py:Driver"]
