"""Source guard: the on-disk idioms live in one place each.

Write-temp-then-replace, the torn-line journal reader and the pid-liveness
probe were each copied from PR to PR until six, three and two copies
existed — and a fix to one (heal a torn tail, hide the temp from listings)
never reached the others.  They now live in :mod:`repro.store.files`; this
test walks the source tree and pins every remaining use of the underlying
primitives to that module, plus the two deliberate exceptions:
``ContentStore._quarantine`` (a move, not a publish) and
``LeaseTable.acquire`` (exclusive-create by hard link, not replace).

The same guard pins worker-pool construction: every fan-out borrows the
process's one long-lived pool, so ``ProcessPoolExecutor(...)`` is built in
exactly one function (a second site would be a second pool, forked
outside the reuse rule and joined by nobody at exit) — and the composition
of a scenario-service process: ``ScenarioService(...)`` is constructed only
by ``build_service``, so ``repro serve`` and every shard of
``serve --shards N`` honour the same options (a second site is a second
subset of them).  And the fan-out: ``supervise_map(...)`` is called by the
one instance fan-out (``core/parallel.py:_fan_out``) and by the single-run
``simulate`` command, nowhere else — a third fan-out would be a third set
of failure semantics.
"""

import ast
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.fast

SRC_ROOT = Path(repro.__file__).resolve().parent

ALLOWED = {
    ("replace", "store/files.py", "atomic_write"),
    ("replace", "store/cas.py", "_quarantine"),
    ("mkstemp", "store/files.py", "atomic_write"),
    ("mkstemp", "store/cas.py", "acquire"),
    ("kill", "store/files.py", "pid_alive"),
    ("loads(line", "store/files.py", "read_jsonl"),
    ("ProcessPoolExecutor(", "core/parallel.py", "borrow"),
    ("ScenarioService(", "service/shard.py", "build_service"),
    ("supervise_map(", "core/parallel.py", "_fan_out"),
    ("supervise_map(", "cli.py", "_cmd_simulate"),
}

#: Callables whose call sites are pinned to the functions listed above.
PINNED_CALLS = ("ProcessPoolExecutor", "ScenarioService", "supervise_map")


def _idiom(call: ast.Call) -> str | None:
    """Which guarded primitive ``call`` is, if any."""
    func = call.func
    for name in PINNED_CALLS:
        if name in (getattr(func, "id", None), getattr(func, "attr", None)):
            return f"{name}("
    if not isinstance(func, ast.Attribute):
        return None
    module = func.value.id if isinstance(func.value, ast.Name) else None
    if func.attr == "replace":
        # os.replace(src, dst) or Path.replace(dst); str.replace takes two
        # positionals, dataclasses/datetime replace take keywords.
        if module == "os" or (len(call.args) == 1 and not call.keywords
                              and module != "dataclasses"):
            return "replace"
    if (module, func.attr) in {("os", "kill"), ("tempfile", "mkstemp")}:
        return func.attr
    if ((module, func.attr) == ("json", "loads") and call.args
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id == "line"):
        return "loads(line"
    return None


def _sites(root: Path) -> set[tuple[str, str, str]]:
    """``(idiom, file, enclosing function)`` for every guarded call."""
    found = set()

    def walk(node, where, rel):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and (kind := _idiom(child)):
                found.add((kind, rel, where))
            walk(child, inner, rel)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "<module>",
             path.relative_to(root).as_posix())
    return found


def test_each_idiom_lives_in_one_place():
    assert _sites(SRC_ROOT) == ALLOWED


def test_guard_actually_detects(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import json, os, tempfile\n"
        "def publish(path, tmp, text):\n"
        "    fd, name = tempfile.mkstemp(dir=path.parent)\n"
        "    os.replace(name, path)\n"
        "def swap(path, tmp, text):\n"
        "    tmp.replace(path)\n"
        "    return text.replace('a', 'b')\n"
        "def probe(pid):\n"
        "    os.kill(pid, 0)\n"
        "def replay(fh):\n"
        "    return [json.loads(line) for line in fh]\n"
        "def parse(text):\n"
        "    return json.loads(text)\n"
        "def fan(n):\n"
        "    return ProcessPoolExecutor(max_workers=n)\n"
        "def fan_too(n):\n"
        "    return concurrent.futures.ProcessPoolExecutor(n)\n"
        "def compose(store):\n"
        "    return ScenarioService(store=store)\n"
        "def fan_again(items):\n"
        "    return supervisor.supervise_map(run, items)\n")
    assert _sites(tmp_path) == {
        ("supervise_map(", "mod.py", "fan_again"),
        ("ProcessPoolExecutor(", "mod.py", "fan"),
        ("ProcessPoolExecutor(", "mod.py", "fan_too"),
        ("ScenarioService(", "mod.py", "compose"),
        ("mkstemp", "mod.py", "publish"), ("replace", "mod.py", "publish"),
        ("replace", "mod.py", "swap"),
        ("kill", "mod.py", "probe"), ("loads(line", "mod.py", "replay")}
