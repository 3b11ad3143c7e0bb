"""Source hygiene: every module under src/ and tests/ uses each name it imports,
every export has a reader, every field a src/ class stores has a reader, src/
memoizes nothing keyed by model inputs, only the CLI's two writers and the
quote saver write files, only the study harness's fork-join helper starts
processes or threads, and a CLI run imports no scipy.

The field rule covers each field of a src/ dataclass and each attribute a
src/ class sets on ``self``.  It counts as read when src/ or perfbench/
loads its name as an attribute outside that class's ``__init__`` and
``__post_init__``, so a value that is only validated, or only read by the
tests, fails it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a name or attribute root
    anywhere in the module, or as a string in ``__all__`` (a re-export).
    ``from __future__`` imports are directives, not bindings.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nprint(math.pi)\n"
    assert unused_imports(source) == ["path (line 2)"]


def _top_level_name(node) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return next((t.id for t in targets if isinstance(t, ast.Name)), None)
    return None


def unreferenced_exports(module: str, sources: list[str]) -> list[str]:
    """Names in ``module``'s ``__all__`` that no source reads outside the name's own definition.

    A name counts as read when it appears as a loaded name or as an
    attribute anywhere in ``sources`` (``module`` among them), except inside
    the top-level statement that defines it; ``__all__`` and import
    statements are not reads.
    """
    tree = ast.parse(module)
    exported = []
    for node in tree.body:
        if _top_level_name(node) == "__all__":
            exported = [elt.value for elt in node.value.elts]
    read = set()
    for source in sources:
        for statement in ast.parse(source).body:
            own = _top_level_name(statement) if source is module else None
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    return [name for name in exported if name not in read]


def test_every_export_is_referenced():
    # A public name that neither the package nor the benchmark reads is code
    # that only the tests use; it belongs in the tests.
    src = sorted((ROOT / "src").rglob("*.py"))
    sources = {path: path.read_text() for path in src + sorted((ROOT / "perfbench").rglob("*.py"))}
    unreferenced = {
        str(path.relative_to(ROOT)): unreferenced_exports(sources[path], list(sources.values())) for path in src
    }
    assert {path: names for path, names in unreferenced.items() if names} == {}


def test_unreferenced_export_is_found():
    module = (
        "__all__ = ['used', 'self_only', 'attr_only']\n"
        "def used(): pass\n"
        "def self_only(): return self_only()\n"
        "def attr_only(): pass\n"
    )
    other = "import m\nm.attr_only()\nused()\n"
    assert unreferenced_exports(module, [module, other]) == ["self_only"]


_SETUP = ("__init__", "__post_init__")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "dataclass":
            return True
    return False


def stored_fields(cls: ast.ClassDef) -> list[str]:
    """The class's dataclass fields, then the attributes its methods set on ``self``, each once."""
    names = []
    if _is_dataclass(cls):
        names += [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.append(node.attr)
    return list(dict.fromkeys(names))


def unread_fields(module: str, sources: list[str]) -> list[str]:
    """``Class.field`` for each field a class of ``module`` stores that no source reads.

    A field counts as read when its name is loaded as an attribute anywhere
    in ``sources`` (``module`` among them), except inside the class's own
    ``__init__`` and ``__post_init__``: a check there is validation, not a
    reader.
    """
    tree = ast.parse(module)
    loads = [
        node
        for source in sources
        for node in ast.walk(tree if source is module else ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        setup = {
            id(node)
            for method in cls.body
            if isinstance(method, ast.FunctionDef) and method.name in _SETUP
            for node in ast.walk(method)
        }
        read = {node.attr for node in loads if id(node) not in setup}
        unread += [f"{cls.name}.{name}" for name in stored_fields(cls) if name not in read]
    return unread


def test_every_field_is_read():
    # A stored value that nothing reads is state the package carries for no
    # one; one that only the tests read belongs in the tests.
    src = sorted((ROOT / "src").rglob("*.py"))
    sources = {path: path.read_text() for path in src + sorted((ROOT / "perfbench").rglob("*.py"))}
    unread = {str(path.relative_to(ROOT)): unread_fields(sources[path], list(sources.values())) for path in src}
    assert {path: names for path, names in unread.items() if names} == {}


def test_write_only_field_is_found():
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Quote:\n"
        "    bid: float\n"
        "    ask: float\n"
        "    venue: str\n"
        "    def __post_init__(self):\n"
        "        if not self.venue or self.ask < self.bid:\n"
        "            raise ValueError\n"
        "class Stage(Exception):\n"
        "    def __init__(self, name):\n"
        "        self.name = name\n"
        "        self.code = 2\n"
        "def mid(q): return 0.5 * q.bid\n"
    )
    other = "import m\nprint(m.Stage('x').code, quote.ask)\n"
    assert unread_fields(module, [module, other]) == ["Quote.venue", "Stage.name"]


def memo_sites(source: str) -> list[str]:
    """Where a module uses functools' lru_cache or cache, as the dotted name of the enclosing def or class.

    A decorator counts for the function it decorates; a use at top level is ``<module>``.
    """
    tree = ast.parse(source)
    memos = ("lru_cache", "cache")
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in memos
    }
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            elif (isinstance(child, ast.Name) and child.id in aliases) or (
                isinstance(child, ast.Attribute)
                and child.attr in memos
                and isinstance(child.value, ast.Name)
                and child.value.id == "functools"
            ):
                sites.append(scope or "<module>")
            else:
                visit(child, scope)

    visit(tree, "")
    return sites


def test_only_the_quadrature_rule_is_memoized():
    # A process-global memo keyed by model parameters makes a repeated run
    # faster than a first one and hides the cost of what it caches; the
    # Gauss-Legendre rule depends on its node count alone.
    sites = [
        f"{path.stem}.{site}" for path in sorted((ROOT / "src").rglob("*.py")) for site in memo_sites(path.read_text())
    ]
    assert sites == ["numerics.QuadratureRule.gauss_legendre"]


def test_memo_site_is_found():
    source = (
        "import functools\n"
        "from functools import lru_cache as memo\n"
        "class Rule:\n"
        "    @memo(maxsize=None)\n"
        "    def nodes(n): pass\n"
        "@functools.cache\n"
        "def f(x): pass\n"
        "g = functools.lru_cache(f)\n"
        "def h(cache): return cache\n"
    )
    assert memo_sites(source) == ["Rule.nodes", "f", "<module>"]


# Calls that write a file: module -> the functions of it that write.
_WRITER_CALLS = {"json": {"dump", "dumps"}, "csv": {"writer", "DictWriter"}}


def _writes_by_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode, when it has one, may write: any mode that is not a read-only literal."""
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))


def write_sites(source: str) -> list[str]:
    """Where a module writes a file, as the dotted name of the enclosing def or class.

    A write is an ``open`` (or ``.open``) call in a mode that may write, a
    ``write_text`` or ``write_bytes`` call, ``json.dump`` or ``json.dumps``,
    and a ``csv.writer`` or ``csv.DictWriter``, reached through the module or
    imported from it under any name.  A write at top level is ``<module>``.
    """
    tree = ast.parse(source)
    modules = {}
    direct = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module in _WRITER_CALLS:
            direct |= {alias.asname or alias.name for alias in node.names if alias.name in _WRITER_CALLS[node.module]}

    def writes(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in direct or (func.id == "open" and _writes_by_mode(call))
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr in ("write_text", "write_bytes"):
            return True
        if func.attr == "open":
            return _writes_by_mode(call)
        owner = modules.get(func.value.id) if isinstance(func.value, ast.Name) else None
        return func.attr in _WRITER_CALLS.get(owner, ())

    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and writes(child):
                sites.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return list(dict.fromkeys(sites))


def test_only_the_cli_writers_and_save_quotes_write_files():
    # The studies and the stages return data; the CLI writes every run
    # artifact through one JSON and one CSV writer, and market_data, which
    # owns the quote schema, writes the quote files.
    sites = [
        f"{path.stem}.{site}" for path in sorted((ROOT / "src").rglob("*.py")) for site in write_sites(path.read_text())
    ]
    assert sites == ["cli._write_json", "cli._write_csv", "market_data.save_quotes"]


def test_write_site_is_found():
    source = (
        "import csv, json as j\n"
        "from json import dumps as to_text\n"
        "from pathlib import Path\n"
        "def load(path):\n"
        "    with open(path) as a, open(path, 'rb') as b, Path(path).open(mode='r'):\n"
        "        return j.loads(a.read()), csv.reader(b)\n"
        "class Report:\n"
        "    def save(self, path, mode):\n"
        "        Path(path).write_text(to_text(self))\n"
        "    def append(self, path):\n"
        "        with open(path, 'a') as handle:\n"
        "            csv.DictWriter(handle, ['x'])\n"
        "def dump(path, mode):\n"
        "    return open(path, mode)\n"
        "j.dump({}, open('log', 'r+'))\n"
        "def blob(path):\n"
        "    path.write_bytes(b'')\n"
    )
    assert write_sites(source) == ["Report.save", "Report.append", "dump", "<module>", "blob"]


# Modules whose import or use starts processes or threads, and the os functions that fork.
_CONCURRENCY_MODULES = {"multiprocessing", "concurrent", "subprocess", "threading", "_thread"}
_FORKS = {"fork", "forkpty"}


def concurrency_sites(source: str) -> list[str]:
    """Where a module may start a process or a thread, as the dotted name of the enclosing def or class.

    A site is an import of multiprocessing, concurrent.futures, subprocess,
    threading or _thread, an import of ``fork`` or ``forkpty`` from os, and
    a call of either through the os module under any name.  A site at top
    level is ``<module>``.
    """
    tree = ast.parse(source)
    os_names = {
        alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "os"
    }

    def starts(node) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] in _CONCURRENCY_MODULES for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            return root in _CONCURRENCY_MODULES or (root == "os" and any(a.name in _FORKS for a in node.names))
        return (isinstance(node, ast.Attribute) and node.attr in _FORKS
                and isinstance(node.value, ast.Name) and node.value.id in os_names)

    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if starts(child):
                sites.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return list(dict.fromkeys(sites))


def test_only_the_fork_join_helper_starts_processes():
    # One place owns the lifetime of every process and thread the package
    # starts: it reaps each child on every path and raises a child's error.
    sites = [
        f"{path.stem}.{site}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for site in concurrency_sites(path.read_text())
    ]
    assert sites == ["experiments._fork_join"]


def test_concurrency_site_is_found():
    source = (
        "import os as system\n"
        "import concurrent.futures\n"
        "from os import fork\n"
        "def helper():\n"
        "    return system.fork()\n"
        "class Pool:\n"
        "    def start(self):\n"
        "        from multiprocessing import Process\n"
        "        import threading\n"
        "def run(cmd):\n"
        "    import subprocess\n"
        "def quiet(os):\n"
        "    return system.getpid(), system.forked, os.fork\n"
    )
    assert concurrency_sites(source) == ["<module>", "helper", "Pool.start", "run"]


# Run in a fresh interpreter: pytest's own warning filters import scipy.optimize.
_CLI_RUN = """
import sys
import qamcpricer
print("numpy.random" in sys.modules)
from qamcpricer import cli
out = sys.argv[1]
assert cli.main(["make-bundle", "--out", out + "/bundle"]) == 0
assert cli.main(["pipeline", "--config", out + "/bundle/config.json", "--out", out + "/run", "--seed", "0"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_run_imports_no_scipy(tmp_path):
    # scipy is the tests' oracle only: a CLI run pays for no scipy import.
    # numpy loads numpy.random lazily, so the package imports it up front,
    # in set-up and not inside the first timed call.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", _CLI_RUN, str(tmp_path)], capture_output=True, text=True, env=env, check=True
    )
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("True", "[]")


_STUDY_RUN = """
import sys
from qamcpricer import experiments
cfg = experiments.StudyConfig(
    study="price-convergence", repetitions=2, sample_ladder=(2**9, 2**11), epsilon_ladder=(2e-2,)
)
# Both setups in this process: what a forked worker imports never reaches this sys.modules.
experiments._usable_cpus = lambda: 1
print(len(experiments.study_price_convergence(cfg)), "numpy.ma" in sys.modules)
"""


def test_price_study_loads_no_numpy_ma():
    # np.percentile and np.median load numpy.ma (about 13 ms) on their first
    # call; the price study, the benchmark's timed pass, calls neither.  Its
    # ladder reaches both the binary search and the guide table.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", _STUDY_RUN], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.splitlines()[-1] == "2 False"


_DENSITY_RUN = """
import sys
from qamcpricer import experiments
cfg = experiments.StudyConfig(
    study="density-recovery", repetitions=3, qubits=3, matched_cost=200, recovery_terms=(4, 8)
)
rows = experiments.study_density_recovery(cfg)
print(len(rows), "numpy.ma" in sys.modules)
"""


def test_density_study_loads_no_numpy_ma():
    # The density study takes its medians from the sort that gives its
    # percentiles, so it loads numpy.ma no more than the price study does.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", _DENSITY_RUN], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.splitlines()[-1] == "4 False"
