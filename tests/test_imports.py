"""Every name a gsrs module imports is used in that module, every
module-level private function is referenced somewhere in the package, and
every public name is referenced by the package or the benchmark."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gsrs"
BENCH = ROOT / "campaignbench"


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def references(node, strings=False) -> Counter:
    """How often `node` reads each identifier: loaded names and loaded
    attributes, and with `strings` also string constants."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def unreferenced(definitions, trees, readers=()) -> list:
    """Qualified names of `definitions`, (qualified name, name, definition
    node or None) triples, that nothing in `trees` or `readers` reads
    outside the definition itself.  A string constant counts as a read only
    in `readers`: the benchmark's tracer binds functions by attribute name."""
    total = Counter()
    for tree in trees:
        total += references(tree)
    for tree in readers:
        total += references(tree, strings=True)
    return sorted(
        qual
        for qual, name, node in definitions
        if total[name] == (references(node)[name] if node is not None else 0)
    )


def dead_private_functions(sources: dict) -> list:
    """`module.name` of each module-level `_private` function in `sources`
    (module name -> source text) that no code in `sources` references
    outside the function's own definition."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    private = [
        (f"{mod}.{node.name}", node.name, node)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, FUNCTIONS) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    return unreferenced(private, trees.values())


def test_dead_private_functions_detects_orphans():
    sources = {
        "a": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n\ndef __dunder__():\n    pass\n",
        "b": "from . import a\n\ndef f():\n    return a._used()\n",
    }
    assert dead_private_functions(sources) == ["a._orphan"]


def test_no_dead_private_functions():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_functions(sources) == []


def public_definitions(mod: str, tree) -> list:
    """(qualified name, name, definition node or None) for each public
    module-level function, class and assigned name in `tree`, and each
    public method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            out.append((f"{mod}.{node.name}", node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((f"{mod}.{t.id}", t.id, None) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{mod}.{node.name}.{m.name}", m.name, m)
                for m in node.body
                if isinstance(m, FUNCTIONS)
            )
    return [entry for entry in out if not entry[1].startswith("_")]


def unreferenced_public_names(sources: dict, readers: dict) -> list:
    """`module.name` of each public name defined in `sources` (module name
    -> source text) that no code in `sources` or `readers` (more sources
    that only read) references outside the name's own definition."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    public = [entry for mod, tree in trees.items() for entry in public_definitions(mod, tree)]
    return unreferenced(public, trees.values(), [ast.parse(text) for text in readers.values()])


# public names nothing in gsrs or the benchmark uses, kept on purpose
PUBLIC_ALLOWLIST = {
    "families.valid_instances": "criterion 2's catalog set, larger than the selection set",
    "region.cells_svg_overlay": "renders diagnostic figures of residual cells",
    "verify.CoverageReport.failed_cells": "names the failing cells in acceptance-test messages",
}


def test_unreferenced_public_names_detects_orphans():
    sources = {
        "a": (
            "LIMIT = 3\nUNUSED = 4\n\ndef used():\n    return LIMIT, 'spelled'\n\n"
            "def orphan():\n    return orphan()\n\n"
            "class K:\n    def called(self):\n        return 1\n\n"
            "    def lonely(self):\n        return self.lonely()\n\n"
            "    def spelled(self):\n        return 2\n\n"
            "    def __repr__(self):\n        return ''\n"
        ),
        "b": "from . import a\n\ndef run():\n    return a.used(), a.K().called()\n",
    }
    readers = {"bench": "TRACED = ('run',)\n"}
    assert unreferenced_public_names(sources, readers) == [
        "a.K.lonely", "a.K.spelled", "a.UNUSED", "a.orphan",
    ]


def test_no_unreferenced_public_names():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {str(path): path.read_text() for path in sorted(BENCH.rglob("*.py"))}
    assert unreferenced_public_names(sources, readers) == sorted(PUBLIC_ALLOWLIST)
