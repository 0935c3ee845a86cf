"""Every name a capsim module imports is used in that module, every
top-level function or class is referenced somewhere in the package, every
stored attribute is read somewhere, and the command layer imports no
numerical code when it loads.

No linter ships with the test dependencies, so these are AST scans.  The
import scan also covers the demos, the tests and the benchmark scripts.  A
name bound by several imports (config.py's sha256 fallbacks) counts as used
when any use reads it.  A name in __init__.py's lazy export table counts as
a reference, and a table entry its module does not define is reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "capsim"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
# what `import capsim.cli` and `caps-sim validate` load; every other module is numerical
COMMAND_LAYER = ("__init__.py", "__main__.py", "cavity.py", "cli.py", "config.py",
                 "errors.py", "experiments.py", "pulse_width.py", "units.py")
# the package's modules by file name, then every other script by its path from ROOT
SCRIPTS = MODULES + [str(p.relative_to(ROOT)) for d in ("demos", "tests", "perfbench")
                     for p in sorted((ROOT / d).glob("*.py"))]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _lazy_exports(source):
    """{module file: names} of the _EXPORTS table an __init__.py source assigns."""
    for stmt in ast.parse(source).body:
        if [getattr(t, "id", None) for t in getattr(stmt, "targets", ())] == ["_EXPORTS"]:
            return {f"{module}.py": names for module, names in ast.literal_eval(stmt.value).items()}
    return {}


def _unreferenced_definitions(sources):
    """module:name of each top-level def or class no statement reads but its own,
    and __init__.py:module.name of each lazy export its module does not define.

    sources maps module file names to their text.  Names are matched across
    modules, so a definition counts as referenced when any module reads its
    name, as a bare name, an attribute or a from-import, or __init__.py's
    _EXPORTS table lists it.  A module-level dunder (PEP 562's __getattr__)
    is called by the interpreter.  An export is defined by a def, a class or
    an assignment in its module, never by an import of it.
    """
    defined, referenced, homes = [], set(), {}
    for module, source in sources.items():
        homes[module] = set()
        for stmt in ast.parse(source).body:
            nodes = list(ast.walk(stmt))
            names = ({n.id for n in nodes if isinstance(n, ast.Name)}
                     | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                     | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name))
                homes[module].add(stmt.name)
                names.discard(stmt.name)
            elif isinstance(stmt, ast.Assign):
                homes[module] |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            referenced |= names
    exports = _lazy_exports(sources.get("__init__.py", ""))
    referenced |= {name for names in exports.values() for name in names}
    stale = [f"__init__.py:{module[:-3]}.{name}" for module, names in exports.items()
             for name in names if name not in homes.get(module, ())]
    return sorted(stale + [f"{module}:{name}" for module, name in defined
                           if name not in referenced and not name.startswith("__")])


def _load_time_imports(source):
    """The modules a source imports when it loads, a relative one as '.name'.

    A function body runs only when called, so the scan does not enter it;
    class bodies and top-level try or if blocks run at load and are scanned.
    """
    found, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(["." * node.level + node.module.split(".")[0]] if node.module
                         else ["." * node.level + a.name for a in node.names])
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_scan_flags_an_unused_import():
    source = ("import math\nimport os.path\nfrom functools import lru_cache as cache\n"
              "from json import dumps\nprint(os.path.sep, dumps)\n")
    assert _unused_imports(source) == ["cache", "math"]


def test_modules_found():
    assert {"experiments.py", "runner.py", "transfer_matrix.py", *COMMAND_LAYER} <= set(MODULES)


@pytest.mark.parametrize("module", SCRIPTS)
def test_every_import_is_used(module):
    path = SRC / module if module in MODULES else ROOT / module
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unreferenced_definition():
    sources = {"a.py": ("import b\ndef loop():\n    return loop()\nclass Used:\n    pass\n"
                        "def helper():\n    return Used\ndef exported():\n    pass\n"
                        "x = b.reached()\n"),
               "b.py": "from .a import helper\ndef reached():\n    return helper()\n",
               "__init__.py": ("_EXPORTS = {'a': ('exported', 'x', 'gone'), 'b': ('helper',)}\n"
                               "def __getattr__(name):\n    return name\n")}
    # b only imports helper, so the table's b.helper is stale like a.gone
    assert _unreferenced_definitions(sources) == ["__init__.py:a.gone", "__init__.py:b.helper",
                                                  "a.py:loop"]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unreferenced_definitions(sources) == []


def test_scan_finds_only_the_imports_run_at_load():
    source = ("import numpy.linalg as la\nfrom . import cavity as cav\ntry:\n"
              "    from .gate import x\nexcept ImportError:\n    x = None\n"
              "class A:\n    from ..pkg.source import y\n"
              "def f():\n    from . import rates\n    import scipy\n")
    assert _load_time_imports(source) == {"numpy", ".cavity", ".gate", "..pkg"}


@pytest.mark.parametrize("module", COMMAND_LAYER)
def test_command_layer_loads_no_numerical_module(module):
    numerical = {"numpy"} | {"." + m[:-3] for m in MODULES if m not in COMMAND_LAYER}
    assert sorted(_load_time_imports((SRC / module).read_text()) & numerical) == []


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _unread_attributes(sources, readers):
    """module:Class.name of each dataclass field or self.name assignment whose
    name no reader text reads as an attribute.

    sources maps module file names to their text; readers are the texts
    scanned for reads.  Names are matched across classes, so a read of
    x.name counts for every class that stores name.
    """
    read = {node.attr for text in readers for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    stored = set()
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                stored |= {(module, cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
            stored |= {(module, cls.name, node.attr) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and getattr(node.value, "id", None) == "self"}
    return sorted(f"{module}:{cls}.{name}" for module, cls, name in stored if name not in read)


def test_scan_flags_an_unread_attribute():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass Result:\n    kept: float\n    dropped: dict\n"
              "class Handle:\n    LIMIT: int = 3\n    def __init__(self):\n"
              "        self.used, self.spare = 1, 2\n        self.cached = self.used\n"
              "def read(r):\n    return r.kept\n")
    readers = [source, "print(handle.cached)\n"]
    assert _unread_attributes({"a.py": source}, readers) == ["a.py:Handle.spare",
                                                              "a.py:Result.dropped"]


def test_every_stored_attribute_is_read():
    # perfbench/ and the demos read the package too; the tests do not count
    readers = [p.read_text() for d in (SRC, ROOT / "demos", ROOT / "perfbench")
               for p in sorted(d.rglob("*.py"))]
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unread_attributes(sources, readers) == []
