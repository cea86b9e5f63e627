"""No module of the package imports a name it never uses.

The package's __init__ is exempt: its imports are the public API it
re-exports.
"""

import ast
from pathlib import Path

import pytest

import pwlearn

MODULES = sorted(p for p in Path(pwlearn.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nfrom typing import Iterable, Sequence\n\nx: Iterable = math.pi\n"
    assert _unused_imports(source) == ["line 2: Sequence"]
