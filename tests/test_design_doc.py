"""Citation guard: what DESIGN.md cites exists, and so does every section
other files cite in it.

DESIGN.md describes the current state of the system, so it goes stale
whenever code it names moves.  This test reads the backticked citations
out of it — repository paths, dotted ``repro.…`` names, ``Class.member``
names, ``file.py:name`` and ``file.py::test_name`` references — and
resolves each against the tree: paths must exist, dotted names must
import, ``Class.member`` must be defined somewhere under ``src/repro``,
and ``file:name`` references must name a def, class or module-level
assignment in that file.  It also resolves every "DESIGN.md §N"
reference in README.md, EXPERIMENTS.md, ``src/``, ``tests/`` and
``benchmarks/`` (and DESIGN.md's own "§N" cross-references) to a
numbered heading.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.fast

ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = Path(repro.__file__).resolve().parent

#: Directories a backticked path may start with (else it is relative to
#: ``src/repro``).
REPO_DIRS = ("src/", "tests/", "benchmarks/", "examples/")

FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`]+)`")
PATH = re.compile(r"^[\w./-]+$")
FILE_REF = re.compile(r"^([\w./-]+\.py)(::?)([\w.:]+)$")
DOTTED = re.compile(r"^repro(\.\w+)+$")
MEMBER = re.compile(r"^_?[A-Z][a-z]\w*(\.\w+)+$")  # not CHANGES.md
HEADING = re.compile(r"^## (\d+)\. ", re.MULTILINE)
SECTION_REF = re.compile(r"DESIGN(?:\.md)?\s+§\s*(\d+)")
OWN_REF = re.compile(r"§\s*(\d+)")


def _resolve_path(text: str, root: Path, src_root: Path) -> Path | None:
    """Where a backticked path points, or None when it is not a path.

    ``tests/…``-style paths are the repository's; any other path is a
    module under ``src/repro`` and ends in ``.py`` (``checkpoint/v1`` is a
    key family, ``/v1/scenarios`` a route).
    """
    if not PATH.match(text):
        return None
    if text.startswith(REPO_DIRS):
        return root / text
    if not text.endswith(".py") or text.startswith(("/", ".")):
        return None
    if "/" not in text:  # a bare module file: anywhere under src/repro
        found = sorted(src_root.rglob(text))
        return found[0] if found else src_root / text
    return src_root / text


def _defined_names(path: Path) -> set[str]:
    """Dotted names of every def / class (``Class.method`` too) and every
    module-level assignment in ``path``."""
    names: set[str] = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                names.add(prefix + child.name)
                walk(child, prefix + child.name + ".")

    tree = ast.parse(path.read_text(encoding="utf-8"))
    walk(tree, "")
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.C.d`` imports (longest module prefix) and
    ``getattr`` reaches the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def citation_problems(design: str, root: Path = ROOT,
                      src_root: Path = SRC_ROOT) -> list[str]:
    """Every citation in ``design`` that no longer resolves."""
    members = set().union(*map(_defined_names, src_root.rglob("*.py")))
    problems = []
    for raw in CODE_SPAN.findall(FENCE.sub("", design)):
        text = " ".join(raw.split())
        if (ref := FILE_REF.match(text)) is not None:
            path = _resolve_path(ref.group(1), root, src_root)
            name = ref.group(3).replace("::", ".").replace(":", ".")
            if path is None or not path.is_file():
                problems.append(f"missing file: {text}")
            elif name not in _defined_names(path):
                problems.append(f"no such name: {text}")
        elif DOTTED.match(head := text.split("(", 1)[0]):
            if not _resolves(head):
                problems.append(f"does not import: {text}")
        elif MEMBER.match(head):
            if head not in members:
                problems.append(f"no such member: {text}")
        elif (path := _resolve_path(text, root, src_root)) is not None:
            if not path.exists():
                problems.append(f"missing path: {text}")
    sections = set(HEADING.findall(design))
    problems += [f"no section §{n} (DESIGN.md)"
                 for n in sorted(set(OWN_REF.findall(design)) - sections)]
    return problems


def section_problems(design: str, texts: dict[str, str]) -> list[str]:
    """Every "DESIGN.md §N" in ``texts`` (name → content) that names no
    heading of ``design``."""
    sections = set(HEADING.findall(design))
    return [f"no section §{n} ({name})"
            for name, text in sorted(texts.items())
            for n in SECTION_REF.findall(text) if n not in sections]


def _citing_files() -> dict[str, str]:
    files = [ROOT / "README.md", ROOT / "EXPERIMENTS.md"]
    for top in ("src", "tests", "benchmarks"):
        files += sorted((ROOT / top).rglob("*.py"))
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
            for p in files}


def test_every_design_citation_resolves():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert citation_problems(design) == []


def test_every_design_section_reference_resolves():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert section_problems(design, _citing_files()) == []


def test_design_stays_a_summary():
    assert len((ROOT / "DESIGN.md").read_text(
        encoding="utf-8").splitlines()) <= 450


def test_guard_actually_detects():
    design = ("## 1. Store\n```\nsrc/repro/\n  store/  `ignored\n```\n"
              "`store/cas.py` `src/repro/store/files.py` "
              "`store/cas.py:ContentStore.put` "
              "`tests/test_one_copy.py::test_guard_actually_detects` "
              "`repro.store.open_store` `<store>/leases` `~/.cache/x`\n"
              "`ContentStore.gc` `FaultPlan.from_flags(inject)`\n"
              "Planted: `core/no_such_module.py`, `repro.store.no_such_name`,"
              " `store/cas.py:no_such_def`, `ContentStore.no_such_member`,"
              " see §7.\n")
    assert citation_problems(design) == [
        "missing path: core/no_such_module.py",
        "does not import: repro.store.no_such_name",
        "no such name: store/cas.py:no_such_def",
        "no such member: ContentStore.no_such_member",
        "no section §7 (DESIGN.md)"]
    assert section_problems(design, {
        "README.md": "see DESIGN.md §1 and DESIGN.md\n§42",
        "x.py": "# DESIGN §1"}) == ["no section §42 (README.md)"]
