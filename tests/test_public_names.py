"""Source guard: every public name under ``src/repro`` earns its place.

A top-level public ``def`` or ``class`` in a non-``__init__`` module must
be referenced by the program: from any ``src/repro`` module (its own
included, outside its own definition), from ``benchmarks/`` or from
``examples/``.  A reference is a name, an attribute or an import that
spells it; docstrings and comments are not references, and neither is a
re-export in a package ``__init__`` (an import there, or a string in
``__all__``, makes a name reachable, not used).  A name whose only
callers are tests is surface nobody runs: give it a caller, delete it
with its tests, or list it in :data:`ALLOWLIST` with one line of reason.

The allowlist is checked both ways, so it cannot rot: an entry whose
name no longer exists, or that has since gained a caller, fails too.
The match is by spelling, so it is a heuristic in one direction only:
a name can hide behind an unrelated attribute of the same spelling, but
a name the guard flags really has no reference outside ``tests/``.
"""

import ast
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.fast

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parents[1]

#: Trees outside the package whose references count.
CALLER_ROOTS = (REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

#: Public names kept without a caller in the program, each with its reason.
ALLOWLIST = {
    # User API: round-trips of the EpiHiper and hub file formats, whose
    # writer side the program uses and whose reader side a user calls.
    ("analytics/hubformat.py", "read_hub_csv"): "hub CSV round-trip",
    ("epihiper/modelio.py", "read_model_json"): "model-JSON round-trip",
    ("epihiper/modelio.py", "write_model_json"): "model-JSON round-trip",
    ("synthpop/io.py", "read_persons_csv"): "persons-CSV round-trip",
    ("synthpop/io.py", "read_network_csv"): "network-CSV round-trip",
    ("synthpop/binfmt.py", "read_partition_chunks"):
        "partition-chunk round-trip",
    ("synthpop/binfmt.py", "write_partition_chunks"):
        "partition-chunk round-trip",
    ("core/cellconfig.py", "read_config_bundle"): "cell-config round-trip",
    ("core/cellconfig.py", "write_config_bundle"): "cell-config round-trip",
    # Paper features DESIGN.md §3 lists as beyond the figures.
    ("core/cellconfig.py", "configs_from_design"):
        "EpiHiper input formats: a design expanded into cell configs",
    ("epihiper/npi.py", "make_vaccination"): "vaccination NPI",
    ("epihiper/npi.py", "make_masking"): "masking NPI",
    ("calibration/quantile.py", "fit_quantile_emulator"):
        "repro.calibration.quantile's entry point",
    ("analytics/transmission.py", "effective_r_series"):
        "repro.analytics.transmission's R_t trajectory",
    ("synthpop/week.py", "assign_week"): "repro.synthpop.week's entry point",
    ("cluster/jobscript.py", "scripts_from_packing"):
        "repro.cluster.jobscript's entry point",
    ("core/calibration_wf.py", "run_iterative_calibration"):
        "Figure 16's 'continue calibrating' rounds",
    # Paper output no figure reads yet.
    ("analytics/aggregate.py", "county_daily_counts"):
        "county-level daily counts from the transition log",
    # Callers ROADMAP item 9 (an executed night) promises.
    ("core/national.py", "run_national"): "the executed night's fan-out",
    ("core/review.py", "calibrate_predict_review_loop"):
        "the executed night's calibrate -> predict -> review cycle",
    # References the tests check the program against.
    ("store/cas.py", "payload_digest"):
        "the content identity tests/golden/ pins outcomes by",
    # Deletion candidate, kept for now because it carries tests of its
    # own (ROADMAP's satellite pool lists it for a later pass).
    ("cluster/popdb.py", "DatabaseFleet"):
        "root of the database-server model; pack_*_dc enforce its limit",
}


def _spellings(node: ast.AST, *, imports: bool) -> set[str]:
    """Every name, attribute and (optionally) imported name in ``node``."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif imports and isinstance(child, ast.alias):
            found.add(child.name.rpartition(".")[2])
    return found


def _modules(root: Path) -> dict[str, ast.Module]:
    """Every module under ``root``, parsed once, by relative path."""
    return {path.relative_to(root).as_posix():
            ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def _public_defs(modules: dict[str, ast.Module]) -> dict[tuple[str, str],
                                                        ast.AST]:
    """``(module, name) -> node`` for each top-level public def or class
    of every non-``__init__`` module."""
    return {(rel, node.name): node
            for rel, tree in modules.items()
            if not rel.endswith("__init__.py")
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")}


def _unreferenced(modules: dict[str, ast.Module],
                  callers: list[ast.Module]) -> set[tuple[str, str]]:
    """Public defs in ``modules`` that neither another top-level statement
    of ``modules`` nor anything in ``callers`` spells."""
    outside: set[str] = set()
    for tree in callers:
        outside |= _spellings(tree, imports=True)
    # Within the package, each top-level statement's spellings, so a
    # definition's own body (recursion, its docstring) is not its caller.
    inside = [(node, _spellings(node,
                                imports=not rel.endswith("__init__.py")))
              for rel, tree in modules.items() for node in tree.body]
    return {key for key, node in _public_defs(modules).items()
            if key[1] not in outside
            and not any(key[1] in names and other is not node
                        for other, names in inside)}


def _violations(root: Path, caller_roots: tuple[Path, ...],
                allowlist: dict[tuple[str, str], str]) -> set[str]:
    """What the guard reports: uncalled names off the list, stale entries."""
    modules = _modules(root)
    callers = [tree for caller_root in caller_roots
               for tree in _modules(caller_root).values()]
    defined = _public_defs(modules)
    unreferenced = _unreferenced(modules, callers)
    report = {f"no caller: {mod}:{name}"
              for mod, name in unreferenced - set(allowlist)}
    for mod, name in set(allowlist) - unreferenced:
        why = ("now has a caller" if (mod, name) in defined
               else "no longer defined")
        report.add(f"allowlisted but {why}: {mod}:{name}")
    return report


def test_every_public_name_has_a_caller():
    assert _violations(SRC_ROOT, CALLER_ROOTS, ALLOWLIST) == set()


def test_every_allowlist_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_guard_actually_detects(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import reexported\n"
        "__all__ = ['reexported', 'uncalled']\n")
    (pkg / "mod.py").write_text(
        '"""uncalled() is only named in this docstring."""\n'
        "def uncalled():\n"
        "    pass\n"
        "def reexported():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def allowed():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n"
        "class Result:\n"
        "    pass\n"
        "def make():\n"
        "    return Result()\n"
        "def bench_only():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n")
    (pkg / "other.py").write_text(
        "from .mod import called\n"
        "def run():\n"
        "    return called()\n")
    (bench / "bench_x.py").write_text(
        "from pkg import mod, other\n"
        "mod.bench_only()\n"
        "other.run()\n"
        "mod.make()\n")
    allowlist = {("mod.py", "allowed"): "a reason",
                 ("mod.py", "called"): "a reason",
                 ("mod.py", "renamed_away"): "a reason"}
    assert _violations(pkg, (bench,), allowlist) == {
        "no caller: mod.py:uncalled",
        "no caller: mod.py:reexported",
        "no caller: mod.py:recursive",
        "allowlisted but now has a caller: mod.py:called",
        "allowlisted but no longer defined: mod.py:renamed_away"}
