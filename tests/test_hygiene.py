"""Source hygiene: no unused imports and no dead definitions in the package.

Every module uses each name it imports; an import kept on purpose (a
re-export) carries ``# noqa: F401`` on the line of the imported name.
Every top-level function, class and constant is named somewhere in
``src/``, ``tests/`` or ``perfbench/`` besides its own definition.
``__init__`` exists to re-export, so it is not checked, but its imports
count as references.  Only the standard library's ``ast`` is used.
"""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "paulipath"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, including those inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """``name (line N)`` for each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = (
        "from typing import Sequence\nimport os\nimport sys  # noqa: F401\n\n"
        "def f(x: 'Sequence[int]') -> None:\n    pass\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(source: str) -> collections.Counter:
    """Identifiers a source names: loaded names, attributes, imported names and strings.

    A string that is an identifier counts, because code can look a name up
    by string (``getattr``, the benchmark's tracer).
    """
    counts = collections.Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += node.value.isidentifier()
    return counts


def unreferenced_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module: name (line N)`` for each top-level definition in ``modules`` no source names.

    ``modules`` maps a module name to the source whose definitions are
    checked; references are counted in those sources and in ``others``.
    """
    refs = collections.Counter()
    for source in (*modules.values(), *others):
        refs.update(_references(source))
    dead = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}: {name} (line {node.lineno})" for name in names if not refs[name]]
    return dead


def test_checker_flags_an_unreferenced_definition():
    lib = (
        "import os\nLIMIT = 3\n\ndef used():\n    return LIMIT\n\n"
        "def dead():\n    pass\n\nclass Looked:\n    pass\n"
    )
    user = "from lib import used\nused()\ngetattr(lib, 'Looked')\n"
    assert unreferenced_definitions({"lib.py": lib}, [user]) == ["lib.py: dead (line 7)"]


def test_no_dead_definitions():
    checked = {p.name: p.read_text() for p in MODULES}
    others = [
        p.read_text()
        for p in (SRC / "__init__.py", *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "perfbench").rglob("*.py"))
    ]
    assert unreferenced_definitions(checked, others) == []
