"""Every name a capsim module imports is used in that module, every
top-level function or class is referenced somewhere in the package, and
every stored attribute is read somewhere.

No linter ships with the test dependencies, so these are AST scans.  The
import scan also covers the demos, the tests and the benchmark scripts;
__init__.py only re-exports and is skipped by it.  A name
bound by several imports (config.py's sha256 fallbacks) counts as used when
any use reads it.  A re-export from __init__.py counts as a reference.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "capsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
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


def _unreferenced_definitions(sources):
    """module:name of each top-level def or class no statement reads but its own.

    sources maps module file names to their text.  Names are matched across
    modules, so a definition counts as referenced when any module reads its
    name, as a bare name, an attribute or a from-import.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            nodes = list(ast.walk(stmt))
            names = ({n.id for n in nodes if isinstance(n, ast.Name)}
                     | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                     | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name))
                names.discard(stmt.name)
            referenced |= names
    return sorted(f"{module}:{name}" for module, name in defined if name not in referenced)


def test_scan_flags_an_unused_import():
    source = ("import math\nimport os.path\nfrom functools import lru_cache as cache\n"
              "from json import dumps\nprint(os.path.sep, dumps)\n")
    assert _unused_imports(source) == ["cache", "math"]


def test_modules_found():
    assert {"experiments.py", "runner.py", "transfer_matrix.py"} <= set(MODULES)


@pytest.mark.parametrize("module", SCRIPTS)
def test_every_import_is_used(module):
    path = SRC / module if module in MODULES else ROOT / module
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unreferenced_definition():
    sources = {"a.py": ("import b\ndef loop():\n    return loop()\nclass Used:\n    pass\n"
                        "def helper():\n    return Used\ndef exported():\n    pass\n"
                        "x = b.reached()\n"),
               "b.py": "from .a import helper\ndef reached():\n    return helper()\n",
               "__init__.py": "from .a import exported\n"}
    assert _unreferenced_definitions(sources) == ["a.py:loop"]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unreferenced_definitions(sources) == []


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
