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
by ``build_service``, so every ``repro serve`` honours the same options (a
second site is a second subset of them), and ``ThreadingHTTPServer`` is
subclassed once, so the service has one HTTP front door (a second is a
second process to route through, drain and keep in step).  And the fan-out: ``supervise_map(...)`` is called by the
one instance fan-out (``core/parallel.py:_fan_out``), nowhere else — a
second fan-out would be a second set of failure semantics.  And what ``--checkpoint-every`` opens:
``CheckpointPlan(...)`` is built only by ``checkpoint_plan``, which the
CLI and ``build_service`` both call (three sites once disagreed on salt,
lease root and ledger path).  And the blob format: ``write_blob(...)`` is
called only by ``ContentStore.put`` and ``read_blob(...)`` only by
``ContentStore.get``, and no other serialiser (``np.savez*``,
``np.load``, ``zipfile``) appears under ``src/repro`` — every family,
checkpoints included, is one codec.

Inside the tick core (``epihiper/``), Eq. 1's probability (``expm1``) and
the attribution shuffle (``.permutation``) are each called in exactly one
function, the one both simulation drivers share: a second site would be a
second copy of the sampling kernel, free to drift from the first.
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
    ("ScenarioService(", "service/server.py", "build_service"),
    ("supervise_map(", "core/parallel.py", "_fan_out"),
    ("CheckpointPlan(", "checkpoint/manager.py", "checkpoint_plan"),
    ("write_blob(", "store/cas.py", "put"),
    ("read_blob(", "store/cas.py", "get"),
}

#: Callables whose call sites are pinned to the functions listed above.
PINNED_CALLS = ("ProcessPoolExecutor", "ScenarioService", "supervise_map",
                "CheckpointPlan", "write_blob", "read_blob")

#: Serialisers the blob codec replaced; none may appear under src/repro.
RETIRED_CODECS = ("savez", "np.load(", "zipfile")

#: The tick core's sampling calls, each pinned to one function.
TICK_CORE_ALLOWED = {
    ("expm1(", "transmission.py", "sample_transmissions"),
    ("permutation(", "transmission.py", "sample_transmissions"),
}


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


def _http_servers(root: Path) -> set[tuple[str, str]]:
    """``(file, class)`` for every class deriving ``ThreadingHTTPServer``."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "ThreadingHTTPServer" in (getattr(base, "id", None),
                                              getattr(base, "attr", None))
                    for base in node.bases):
                found.add((path.relative_to(root).as_posix(), node.name))
    return found


def _tick_core_idiom(call: ast.Call) -> str | None:
    """``expm1(`` / ``permutation(`` however the callable is reached."""
    name = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
    return f"{name}(" if name in ("expm1", "permutation") else None


def _sites(root: Path, idiom=_idiom) -> set[tuple[str, str, str]]:
    """``(idiom, file, enclosing function)`` for every guarded call."""
    found = set()

    def walk(node, where, rel):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and (kind := idiom(child)):
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
        "    return supervisor.supervise_map(run, items)\n"
        "def plan(root):\n"
        "    return manager.CheckpointPlan(store_root=root, every=5)\n"
        "def save(fh, arrays):\n"
        "    cas.write_blob(fh, arrays)\n"
        "def load(path):\n"
        "    return read_blob(path)\n")
    assert _sites(tmp_path) == {
        ("write_blob(", "mod.py", "save"), ("read_blob(", "mod.py", "load"),
        ("supervise_map(", "mod.py", "fan_again"),
        ("CheckpointPlan(", "mod.py", "plan"),
        ("ProcessPoolExecutor(", "mod.py", "fan"),
        ("ProcessPoolExecutor(", "mod.py", "fan_too"),
        ("ScenarioService(", "mod.py", "compose"),
        ("mkstemp", "mod.py", "publish"), ("replace", "mod.py", "publish"),
        ("replace", "mod.py", "swap"),
        ("kill", "mod.py", "probe"), ("loads(line", "mod.py", "replay")}


def _retired_codec_uses(root: Path) -> set[tuple[str, str]]:
    """``(file, word)`` for every retired serialiser named in ``root``."""
    return {(path.relative_to(root).as_posix(), word)
            for path in sorted(root.rglob("*.py"))
            for word in RETIRED_CODECS
            if word in path.read_text(encoding="utf-8")}


def test_one_blob_codec():
    assert _retired_codec_uses(SRC_ROOT) == set()


def test_blob_codec_guard_actually_detects(tmp_path):
    (tmp_path / "a.py").write_text("np.savez_compressed(fh, **arrays)\n")
    (tmp_path / "b.py").write_text("with np.load(path) as npz: pass\n")
    (tmp_path / "c.py").write_text("import zipfile\nnp.loadtxt(path)\n")
    assert _retired_codec_uses(tmp_path) == {
        ("a.py", "savez"), ("b.py", "np.load("), ("c.py", "zipfile")}


def test_one_http_front_door():
    assert _http_servers(SRC_ROOT) == {("service/server.py", "ScenarioServer")}


def test_http_front_door_guard_actually_detects(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import http.server\n"
        "from http.server import ThreadingHTTPServer\n"
        "class Door(ThreadingHTTPServer):\n"
        "    pass\n"
        "class Router(http.server.ThreadingHTTPServer):\n"
        "    pass\n"
        "class Plain(http.server.HTTPServer):\n"
        "    pass\n")
    assert _http_servers(tmp_path) == {("mod.py", "Door"),
                                       ("mod.py", "Router")}


def test_tick_core_sampling_lives_in_one_function():
    assert _sites(SRC_ROOT / "epihiper", _tick_core_idiom) == \
        TICK_CORE_ALLOWED


def test_tick_core_guard_actually_detects(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from numpy import expm1\n"
        "def sample(rho, rng, n):\n"
        "    return -np.expm1(-rho), rng.permutation(n)\n"
        "def sample_again(rho, rng, n):\n"
        "    order = np.random.default_rng(0).permutation(n)\n"
        "    return -expm1(-rho), order\n"
        "def other(rho):\n"
        "    return np.exp(-rho)\n")
    assert _sites(tmp_path, _tick_core_idiom) == {
        ("expm1(", "mod.py", "sample"), ("permutation(", "mod.py", "sample"),
        ("expm1(", "mod.py", "sample_again"),
        ("permutation(", "mod.py", "sample_again")}
