"""Every name a gsrs module imports is used in that module, and every
module-level private function is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gsrs"


def unused_imports(source: str) -> list:
    """Names bound by import statements in `source` that no expression
    reads (`from __future__` imports are directives, not names)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detects_dead_names():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nc(d)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_functions(sources: dict) -> list:
    """`module.name` of each module-level `_private` function in `sources`
    (module name -> source text) that no code in `sources` references
    outside the function's own definition."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    private = [
        (mod, node.name)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = top.name if isinstance(top, defs) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(f"{mod}.{name}" for mod, name in private if name not in used)


def test_dead_private_functions_detects_orphans():
    sources = {
        "a": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n\ndef __dunder__():\n    pass\n",
        "b": "from . import a\n\ndef f():\n    return a._used()\n",
    }
    assert dead_private_functions(sources) == ["a._orphan"]


def test_no_dead_private_functions():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_functions(sources) == []
