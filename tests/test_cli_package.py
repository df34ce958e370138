"""The ``repro.cli`` package: what building the parser loads, and what a
command leaves behind."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from repro.cli import main

pytestmark = pytest.mark.fast

SRC = Path(repro.__file__).resolve().parent.parent


def test_building_the_parser_loads_only_the_cli():
    """Handlers import lazily: ``--help`` and argument errors never pay
    for numpy, the engine or the service."""
    code = ("import sys, repro.cli; repro.cli.build_parser(); "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('repro'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert [m for m in out
            if m != "repro" and not m.startswith("repro.cli")] == []
    assert "repro.cli.run" in out


def test_chaos_checkpoint_without_store_dir_leaves_no_temp(
        tmp_path, monkeypatch, capsys):
    """The drill's checkpoint chain lives in a temporary store that is
    removed when the chaos leg ends."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    assert main(["chaos", "run", "VT", "--instances", "2", "--days", "12",
                 "--checkpoint-every", "4", "--serial", "--inject",
                 "worker.crash_mid_run:tick=6,times=1"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint.resumed = 2" in out
    assert "equivalence: OK" in out
    assert list(tmp_path.iterdir()) == []
