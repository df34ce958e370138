"""Source guard: the README's table is the inventory of ``REPRO_*`` knobs.

Every environment variable is a configuration someone has to know about
and a value someone has to choose, and they used to accrete one PR at a
time, documented wherever that PR happened to write (or nowhere).  This
test reads the names out of the actual source tree and out of the
README's "Environment variables" table and requires the two sets to be
equal, so a new knob cannot land undocumented and a deleted one cannot
linger in the docs.
"""

import re
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.fast

SRC_ROOT = Path(repro.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _source_knobs(root: Path) -> set[str]:
    return {name for path in root.rglob("*.py")
            for name in KNOB.findall(path.read_text(encoding="utf-8"))}


def _documented_knobs(readme: str) -> set[str]:
    """Names in the first column of the "Environment variables" table."""
    section = readme.split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {name for line in section.splitlines() if line.startswith("|")
            for name in KNOB.findall(line.split("|")[1])}


def test_readme_table_lists_exactly_the_variables_the_source_reads():
    documented = _documented_knobs(README.read_text(encoding="utf-8"))
    assert documented == _source_knobs(SRC_ROOT)


def test_guard_actually_detects(tmp_path):
    (tmp_path / "mod.py").write_text(
        'import os\nos.environ.get("REPRO_NEW_KNOB")\n')
    assert _source_knobs(tmp_path) == {"REPRO_NEW_KNOB"}
    table = ("intro REPRO_NOT_A_ROW\n## Environment variables\n"
             "| Variable | Effect |\n| --- | --- |\n"
             "| `REPRO_A` | mentions REPRO_B |\n## Next\n| `REPRO_C` | x |\n")
    assert _documented_knobs(table) == {"REPRO_A"}
