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

The guard reaches below module level twice.  Every method, property,
classmethod and staticmethod of a top-level class must be spelled
somewhere else in the program (outside its own definition; dunders are
the language's hooks).  And every defaulted parameter of a function the
program calls must be set to another value by at least one program
call, by keyword, by position or through ``functools.partial`` (passing
the default's own spelling does not count): a setting with one value in
use is a module constant.  Each has its own allowlist
(:data:`MEMBER_ALLOWLIST`, :data:`OPTION_ALLOWLIST`).

Every allowlist is checked both ways, so it cannot rot: an entry whose
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
}


#: Members kept without a reference in the program, each with its reason.
MEMBER_ALLOWLIST = {
    # Checks on results, which tests run against the program's output.
    ("analytics/ensembles.py", "EnsembleBand", "covers"):
        "check on results: which days an observed series lies in the band",
    ("cluster/slurm.py", "ScheduleResult", "validate_no_overlap_violation"):
        "check on results: no node runs two jobs at once",
    ("metapop/seir.py", "MetapopResult", "conservation_error"):
        "check on results: S+E+I+R stays at the initial total",
    ("store/cas.py", "ContentStore", "quarantined_keys"):
        "check on results: what the integrity checks set aside",
    # References the tests compare the program against.
    ("epihiper/disease.py", "DiseaseModel", "expected_path_lengths"):
        "analytic dwell reference for Table III model edits",
    ("epihiper/engine.py", "Simulation", "current_state_counts"):
        "census recounted from the state column, against the kept census",
    ("scheduling/wmp.py", "WMPInstance", "lower_bound"):
        "strip-packing bound the packers are held to",
    # Stdlib hook overrides and name-routed handlers.
    ("service/api.py", "JsonApiHandler", "do_GET"):
        "http.server hook",
    ("service/api.py", "JsonApiHandler", "do_POST"):
        "http.server hook",
    ("service/api.py", "JsonApiHandler", "log_message"):
        "http.server hook",
    ("service/server.py", "ScenarioServer", "process_request"):
        "socketserver hook",
    ("service/server.py", "ScenarioServer", "shutdown_request"):
        "socketserver hook",
    ("service/server.py", "ScenarioHandler", "api_get_scenario"):
        "routed by name: JsonApiHandler dispatches api_<route>",
    ("service/server.py", "ScenarioHandler", "api_healthz"):
        "routed by name: JsonApiHandler dispatches api_<route>",
    ("service/server.py", "ScenarioHandler", "api_list_scenarios"):
        "routed by name: JsonApiHandler dispatches api_<route>",
    ("service/server.py", "ScenarioHandler", "api_metrics"):
        "routed by name: JsonApiHandler dispatches api_<route>",
    ("service/server.py", "ScenarioHandler", "api_submit_scenario"):
        "routed by name: JsonApiHandler dispatches api_<route>",
    # A caller a ROADMAP item promises.
    ("calibration/mcmc.py", "MCMCResult", "effective_sample_size"):
        "ROADMAP item 5's multi-chain diagnostics",
}

#: Defaulted parameters no program call sets, each with its reason.
OPTION_ALLOWLIST = {
    # Deployment settings: stores, ledgers, metrics handles, salts, fault
    # plans, worker counts, the machine and its network timeouts.
    ("core/calibration_wf.py", "run_calibration_workflow", "parallel"):
        "deployment: serial or pooled fan-out",
    ("core/calibration_wf.py", "run_calibration_workflow", "max_workers"):
        "deployment: worker count",
    ("core/counterfactual_wf.py", "run_economic_workflow", "store"):
        "deployment: result store",
    ("core/counterfactual_wf.py", "run_economic_workflow", "ledger"):
        "deployment: run ledger",
    ("core/prediction_wf.py", "run_prediction_workflow", "store"):
        "deployment: result store",
    ("core/prediction_wf.py", "run_prediction_workflow", "ledger"):
        "deployment: run ledger",
    ("core/orchestrator.py", "orchestrate_night", "cluster"):
        "deployment: the remote machine",
    ("core/orchestrator.py", "orchestrate_night", "window"):
        "deployment: the remote machine's access window",
    ("core/orchestrator.py", "orchestrate_night", "registry"):
        "deployment: metrics handle",
    ("epihiper/engine.py", "Simulation.__init__", "metrics"):
        "deployment: metrics handle",
    ("obs/spans.py", "Tracer.__init__", "faults"):
        "deployment: fault plan",
    ("service/client.py", "ServiceClient.__init__", "timeout_s"):
        "deployment: network timeout",
    ("surrogate/corpus.py", "build_corpus", "salt"):
        "deployment: code-version salt",
    ("surrogate/registry.py", "ModelRegistry.stale", "salt"):
        "deployment: code-version salt",
    ("surrogate/serving.py", "SurrogateGate.__init__", "salt"):
        "deployment: code-version salt",
    ("surrogate/serving.py", "SurrogateGate.__init__", "metrics"):
        "deployment: metrics handle",
    # Reached only indirectly, where the spelling match cannot follow.
    ("core/parallel.py", "_execute_group", "attempt"):
        "supervise_map calls fn(item, attempt, faults)",
    ("core/parallel.py", "_execute_group", "faults"):
        "supervise_map calls fn(item, attempt, faults)",
    ("core/parallel.py", "_execute_group", "allow_exit"):
        "set through a partial of a partial (the pooled fn)",
    ("core/parallel.py", "_fan_out", "land"):
        "set through the partial fan in supervise_instances",
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


def _report(unreferenced: set[tuple], defined: set[tuple],
            allowlist: dict[tuple, str], what: str) -> set[str]:
    """Findings off the list, plus list entries that went stale."""
    def label(key):
        return f"{key[0]}:{'.'.join(key[1:])}"
    report = {f"{what}: {label(key)}"
              for key in unreferenced - set(allowlist)}
    for key in set(allowlist) - unreferenced:
        why = "now has a caller" if key in defined else "no longer defined"
        report.add(f"allowlisted but {why}: {label(key)}")
    return report


def _trees(root: Path, caller_roots: tuple[Path, ...]):
    """The package's modules and every caller tree, parsed once."""
    return _modules(root), [tree for caller_root in caller_roots
                            for tree in _modules(caller_root).values()]


def _violations(root: Path, caller_roots: tuple[Path, ...],
                allowlist: dict[tuple[str, str], str]) -> set[str]:
    """What the guard reports: uncalled names off the list, stale entries."""
    modules, callers = _trees(root, caller_roots)
    return _report(_unreferenced(modules, callers),
                   set(_public_defs(modules)), allowlist, "no caller")


def _classes(modules: dict[str, ast.Module]):
    """``(module, class)`` for each top-level class of every
    non-``__init__`` module."""
    return [(rel, node) for rel, tree in modules.items()
            if not rel.endswith("__init__.py")
            for node in tree.body if isinstance(node, ast.ClassDef)]


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(modules: dict[str, ast.Module]) -> dict[tuple[str, str, str],
                                                     list[ast.AST]]:
    """``(module, class, member) -> defs`` for each method, property,
    classmethod and staticmethod of a top-level class (a property's setter
    is one member with its getter); dunders are the language's hooks."""
    found: dict[tuple[str, str, str], list[ast.AST]] = {}
    for rel, cls in _classes(modules):
        for node in cls.body:
            if _is_def(node) and not _is_dunder(node.name):
                found.setdefault((rel, cls.name, node.name), []).append(node)
    return found


def _unreferenced_members(modules: dict[str, ast.Module],
                          callers: list[ast.Module]) -> set[tuple]:
    """Members that no caller tree and no package statement outside the
    member's own definition spells.  A class body counts statement by
    statement, so a sibling method is a caller and the member is not."""
    outside: set[str] = set()
    for tree in callers:
        outside |= _spellings(tree, imports=True)
    inside = []
    for rel, tree in modules.items():
        imports = not rel.endswith("__init__.py")
        for node in tree.body:
            for unit in (node.body if isinstance(node, ast.ClassDef)
                         else [node]):
                inside.append((unit, _spellings(unit, imports=imports)))
    return {key for key, defs in _members(modules).items()
            if key[2] not in outside
            and not any(key[2] in names and unit not in defs
                        for unit, names in inside)}


def _call_sites(trees: list[ast.Module]) -> dict[str, list[tuple]]:
    """``(args, keywords)`` of every call, keyed by the spelling of what it
    calls; ``partial(f, *args, **kw)`` is a call of ``f``."""
    sites: dict[str, list[tuple]] = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            if getattr(func, "attr", getattr(func, "id", None)) == "partial" \
                    and args:
                func, args = args[0], args[1:]
            name = getattr(func, "attr", getattr(func, "id", None))
            if name is not None:
                sites.setdefault(name, []).append((args, call.keywords))
    return sites


def _defaulted(fn: ast.AST, skip: int) -> list[tuple[str, int | None,
                                                   ast.AST]]:
    """``(parameter, position at a call, default)`` of each defaulted
    parameter; keyword-only ones have no position, ``skip`` drops
    ``self``/``cls``."""
    spec = fn.args
    positional = spec.posonlyargs + spec.args
    first = len(positional) - len(spec.defaults)
    return ([(arg.arg, i - skip, default) for i, (arg, default)
             in enumerate(zip(positional[first:], spec.defaults), first)]
            + [(arg.arg, None, default) for arg, default
               in zip(spec.kwonlyargs, spec.kw_defaults)
               if default is not None])


def _functions(modules: dict[str, ast.Module]):
    """``(module, qualified name, spelling at a call, def, skip)`` for each
    top-level function and each method of a top-level class of every
    non-``__init__`` module (``__init__`` is called by its class name)."""
    for rel, tree in modules.items():
        if rel.endswith("__init__.py"):
            continue
        for node in tree.body:
            if _is_def(node):
                yield rel, node.name, node.name, node, 0
    for rel, cls in _classes(modules):
        for node in cls.body:
            if not _is_def(node) or (_is_dunder(node.name)
                                     and node.name != "__init__"):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            called = cls.name if node.name == "__init__" else node.name
            yield (rel, f"{cls.name}.{node.name}", called, node,
                   0 if static else 1)


def _sets(args: list, keywords: list, param: str, pos: int | None,
          default: ast.AST) -> bool:
    """Whether one call sets ``param`` to something other than its
    default: by keyword, by position, or opaquely through ``**``/``*``.
    Passing the default's own spelling is not setting it."""
    same = ast.dump(default)
    for kw in keywords:
        if kw.arg is None or (kw.arg == param
                              and ast.dump(kw.value) != same):
            return True
    if pos is None:
        return False
    if any(isinstance(a, ast.Starred) for a in args[:pos + 1]):
        return True
    return len(args) > pos and ast.dump(args[pos]) != same


def _unset_options(modules: dict[str, ast.Module],
                   callers: list[ast.Module]) -> tuple[set[tuple],
                                                       set[tuple]]:
    """``(unset, defined)``: defaulted parameters of called functions that
    no call sets to another value, and every defaulted parameter there
    is."""
    sites = _call_sites([*modules.values(), *callers])
    unset, defined = set(), set()
    for rel, qual, called, fn, skip in _functions(modules):
        for param, pos, default in _defaulted(fn, skip):
            key = (rel, qual, param)
            defined.add(key)
            calls = sites.get(called, [])
            if calls and not any(_sets(args, keywords, param, pos, default)
                                 for args, keywords in calls):
                unset.add(key)
    return unset, defined


def _member_violations(root: Path, caller_roots: tuple[Path, ...],
                       allowlist: dict[tuple[str, str, str], str]
                       ) -> set[str]:
    """Uncalled members off the list, stale entries."""
    modules, callers = _trees(root, caller_roots)
    return _report(_unreferenced_members(modules, callers),
                   set(_members(modules)), allowlist, "no reference")


def _option_violations(root: Path, caller_roots: tuple[Path, ...],
                       allowlist: dict[tuple[str, str, str], str]
                       ) -> set[str]:
    """Defaulted parameters no call sets, off the list; stale entries."""
    modules, callers = _trees(root, caller_roots)
    unset, defined = _unset_options(modules, callers)
    return _report(unset, defined, allowlist, "never set")


def test_every_public_name_has_a_caller():
    assert _violations(SRC_ROOT, CALLER_ROOTS, ALLOWLIST) == set()


def test_every_member_is_referenced():
    assert _member_violations(SRC_ROOT, CALLER_ROOTS,
                              MEMBER_ALLOWLIST) == set()


def test_every_option_is_set_by_a_call():
    assert _option_violations(SRC_ROOT, CALLER_ROOTS,
                              OPTION_ALLOWLIST) == set()


def test_every_allowlist_entry_has_a_reason():
    for allowlist in (ALLOWLIST, MEMBER_ALLOWLIST, OPTION_ALLOWLIST):
        assert all(reason.strip() for reason in allowlist.values())


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


def test_member_and_option_guards_actually_detect(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self, size=0):\n"
        "        self.size = size\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def uncalled(self):\n"
        "        pass\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "    @property\n"
        "    def area(self):\n"
        "        return 0\n"
        "    @area.setter\n"
        "    def area(self, value):\n"
        "        pass\n"
        "    def allowed(self):\n"
        "        pass\n"
        "def scale(x, factor=2.0, *, offset=0.0, mode='a'):\n"
        "    return x * factor + offset\n"
        "def via_partial(x, *, how='a'):\n"
        "    return x\n"
        "def never_called(x, flag=False):\n"
        "    return x\n"
        "def pulse(x, *, days=14):\n"
        "    return x\n")
    (pkg / "other.py").write_text(
        "import functools\n"
        "from .mod import Box, scale, via_partial\n"
        "def go():\n"
        "    Box().used()\n"
        "    functools.partial(via_partial, how='b')(1)\n"
        "    pulse(1, days=14)\n"
        "    return scale(1, 3.0) + scale(2, mode='b')\n")
    (bench / "bench_x.py").write_text(
        "from pkg import other\n"
        "other.go()\n")
    members = {("mod.py", "Box", "allowed"): "a reason",
               ("mod.py", "Box", "used"): "a reason",
               ("mod.py", "Box", "gone"): "a reason"}
    assert _member_violations(pkg, (bench,), members) == {
        "no reference: mod.py:Box.uncalled",
        "no reference: mod.py:Box.recursive",
        "no reference: mod.py:Box.area",
        "allowlisted but now has a caller: mod.py:Box.used",
        "allowlisted but no longer defined: mod.py:Box.gone"}
    options = {("mod.py", "scale", "mode"): "a reason",
               ("mod.py", "scale", "renamed_away"): "a reason"}
    assert _option_violations(pkg, (bench,), options) == {
        "never set: mod.py:Box.__init__.size",
        "never set: mod.py:scale.offset",
        "never set: mod.py:pulse.days",
        "allowlisted but now has a caller: mod.py:scale.mode",
        "allowlisted but no longer defined: mod.py:scale.renamed_away"}
