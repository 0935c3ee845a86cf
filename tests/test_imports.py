"""Every name a capsim module imports is used in that module.

No linter ships with the test dependencies, so this is an AST scan.
__init__.py only re-exports and is skipped.  A name bound by several
imports (config.py's sha256 fallbacks) counts as used when any use reads it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "capsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_scan_flags_an_unused_import():
    source = ("import math\nimport os.path\nfrom functools import lru_cache as cache\n"
              "from json import dumps\nprint(os.path.sep, dumps)\n")
    assert _unused_imports(source) == ["cache", "math"]


def test_modules_found():
    assert {"experiments.py", "runner.py", "transfer_matrix.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports((SRC / module).read_text()) == []
