"""Source hygiene: no unused imports, no dead definitions, no test-only code in the package,
no config-format code outside the CLI, no packed frontier layout outside ``propagation``, no
unused parameters and no syntax newer than the floor.

Every module uses each name it imports; an import kept on purpose (a
re-export) carries ``# noqa: F401`` on the line of the imported name.
Every top-level function, class and constant, and every method and
property of a top-level class, is named somewhere in ``src/``, ``tests/``
or ``perfbench/`` besides its own definition.  ``__init__`` exists to
re-export, so it is not checked, but its imports count as references.  No
such definition is named by ``tests/`` alone: code only the tests use
belongs in ``tests/``, and there a re-export from ``__init__`` does not
count as a use.  A member is named where code reads it as an attribute
(``obj.name``); dunder methods, which Python calls itself, are exempt.
The check goes by name, not by class, so a member that shares its name
with another one passes while either is used.  ``cli`` alone reads and writes
the config format: no other module defines a function or method with
``json`` in its name (``PauliSum.from_json_obj`` excepted, the name the
benchmark's worker reads an observable by, which calls the CLI's reader),
and only ``cli`` names ``config_int`` or ``config_float``.  Only
``propagation`` names the helpers of the packed frontier layout
(``PACKED_LAYOUT``): every other module reads a result through its
columns or its overlap.  No function
or method has a parameter it never uses, apart from dunder methods and
parameters whose names start with ``_``.  No function declares a
``global``: a module-level cache is a ``functools.cache``, not a variable
that a function rebinds.  Every module parses as Python of the
``requires-python`` floor in ``pyproject.toml`` (``ast.parse`` with that
``feature_version``), so syntax that only a newer interpreter accepts is
caught on whatever interpreter runs the tests.  Every private name that a
docstring or comment in ``src/``, or the README, puts in backticks
(``_name`` or ``module._name``) is defined somewhere in ``src/``, so the
docs cannot go on describing a helper that was deleted.  Only the standard
library's ``ast`` and ``tokenize`` are used.
"""

import ast
import collections
import io
import pathlib
import re
import tokenize

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
    by string (``getattr``, the benchmark's tracer).  An attribute also
    counts under ``.name``, the key a class member is looked up by.
    """
    counts = collections.Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
            counts["." + node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += node.value.isidentifier()
    return counts


def _definitions(modules: dict[str, str]):
    """``(module, name, line, key)`` for each top-level function, class and constant,
    and each method and property of a top-level class but dunders.

    ``key`` is what ``_references`` counts a use under: the name itself, or
    ``.member`` for a member, whose name is ``Class.member``.
    """
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((module, name, node.lineno, name) for name in names)
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    qualified = f"{node.name}.{member.name}"
                    yield module, qualified, member.lineno, "." + member.name


def _all_references(sources) -> collections.Counter:
    refs = collections.Counter()
    for source in sources:
        refs.update(_references(source))
    return refs


def unreferenced_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module: name (line N)`` for each definition in ``modules`` no source names.

    ``modules`` maps a module name to the source whose definitions are
    checked; references are counted in those sources and in ``others``.
    """
    refs = _all_references((*modules.values(), *others))
    return [
        f"{m}: {name} (line {line})" for m, name, line, key in _definitions(modules) if not refs[key]
    ]


def used_only_by_tests(modules: dict[str, str], tests: list[str], others: list[str]) -> list[str]:
    """``module: name (line N)`` for each definition only ``tests`` name.

    A definition in ``modules`` is used by the package when one of those
    sources (its own module included) or one of ``others`` names it.
    """
    used, tested = _all_references((*modules.values(), *others)), _all_references(tests)
    return [
        f"{m}: {name} (line {line})"
        for m, name, line, key in _definitions(modules)
        if tested[key] and not used[key]
    ]


def test_checker_flags_an_unreferenced_definition():
    lib = (
        "import os\nLIMIT = 3\n\ndef used():\n    return LIMIT\n\n"
        "def dead():\n    pass\n\nclass Looked:\n    pass\n"
    )
    user = "from lib import used\nused()\ngetattr(lib, 'Looked')\n"
    assert unreferenced_definitions({"lib.py": lib}, [user]) == ["lib.py: dead (line 7)"]


def test_checker_flags_a_test_only_definition():
    lib = (
        "def used():\n    return helper()\n\ndef helper():\n    pass\n\n"
        "def for_tests():\n    pass\n"
    )
    tests = ["from lib import for_tests, used\nfor_tests()\nused()\n"]
    bench = ["import lib\nlib.used()\n"]
    assert used_only_by_tests({"lib.py": lib}, tests, bench) == ["lib.py: for_tests (line 7)"]
    assert used_only_by_tests({"lib.py": lib}, tests, []) == [
        "lib.py: used (line 1)",
        "lib.py: for_tests (line 7)",
    ]


def test_checker_flags_members():
    # a member only tests read and a property nothing reads are flagged; a
    # string or a local variable of a member's name is not a use of it
    lib = (
        "class Sum:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def items(self):\n        return iter(())\n\n"
        "    def coeff(self, p):\n        return 0.0\n\n"
        "    @property\n    def is_identity(self):\n        return True\n\n"
        "def columns(s):\n    coeff = 'coeff'\n    return list(s.items()), coeff\n"
    )
    tests = ["from lib import Sum\nSum().coeff(1)\n"]
    bench = ["import lib\nlib.columns(lib.Sum())\n"]
    assert unreferenced_definitions({"lib.py": lib}, tests + bench) == [
        "lib.py: Sum.is_identity (line 12)"
    ]
    assert used_only_by_tests({"lib.py": lib}, tests, bench) == ["lib.py: Sum.coeff (line 8)"]


def test_no_test_only_definitions():
    checked = {p.name: p.read_text() for p in MODULES}
    tests = [p.read_text() for p in (ROOT / "tests").rglob("*.py")]
    bench = [p.read_text() for p in (ROOT / "perfbench").rglob("*.py")]
    assert used_only_by_tests(checked, tests, bench) == []


def test_no_dead_definitions():
    checked = {p.name: p.read_text() for p in MODULES}
    others = [
        p.read_text()
        for p in (SRC / "__init__.py", *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "perfbench").rglob("*.py"))
    ]
    assert unreferenced_definitions(checked, others) == []


def _functions(body: list, prefix: str = ""):
    """Qualified names of the functions and methods defined in ``body``, nested ones too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(node, ast.ClassDef):
                yield prefix + node.name
            yield from _functions(node.body, f"{prefix}{node.name}.")


def config_format_outside_cli(modules: dict[str, str]) -> list[str]:
    """``module: name`` for each config reader or writer, and each config check, outside ``cli``.

    ``modules`` maps a module's file name to its source.
    """
    found = []
    for module, source in modules.items():
        if module == "cli.py":
            continue
        found += [
            f"{module}: {name}"
            for name in _functions(ast.parse(source).body)
            if "json" in name.split(".")[-1] and name != "PauliSum.from_json_obj"
        ]
        refs = _references(source)
        found += [f"{module}: names {name}" for name in ("config_int", "config_float") if refs[name]]
    return found


def test_checker_flags_config_format_outside_cli():
    # the readers and writers of the config format as they once were spread over the package
    modules = {
        "channels.py": (
            "from .pauli import config_float, config_triple\n\n"
            "def channel_from_json(obj):\n    return config_float(obj['param'], 'param')\n"
        ),
        "circuits.py": (
            "from .pauli import config_float, config_int\n\n"
            "def gate_from_json(obj):\n    pass\n\n"
            "def _noise_from_json(obj, n):\n    pass\n\n"
            "def circuit_from_json(obj):\n    pass\n\n"
            "def lattice_from_json(obj):\n    pass\n"
        ),
        "propagation.py": (
            "from . import pauli\n\n"
            "class TruncationConfig:\n"
            "    @classmethod\n    def from_json_obj(cls, obj):\n"
            "        return pauli.config_int(obj['k'], 'k')\n\n"
            "class BackpropStats:\n    def to_json_obj(self):\n        pass\n"
        ),
        "montecarlo.py": "class EstimateResult:\n    def to_json_obj(self):\n        pass\n",
        "pauli.py": (
            "def config_float(value, name):\n    pass\n\n"
            "def config_triple(value, name):\n    return config_float(value, name)\n\n"
            "class PauliSum:\n    def to_json_obj(self):\n        pass\n\n"
            "    @classmethod\n    def from_json_obj(cls, obj):\n        pass\n"
        ),
        "cli.py": "from .pauli import config_int\n\ndef _read_json(text):\n    pass\n",
    }
    assert config_format_outside_cli(modules) == [
        "channels.py: channel_from_json",
        "channels.py: names config_float",
        "circuits.py: gate_from_json",
        "circuits.py: _noise_from_json",
        "circuits.py: circuit_from_json",
        "circuits.py: lattice_from_json",
        "circuits.py: names config_int",
        "circuits.py: names config_float",
        "propagation.py: TruncationConfig.from_json_obj",
        "propagation.py: BackpropStats.to_json_obj",
        "propagation.py: names config_int",
        "montecarlo.py: EstimateResult.to_json_obj",
        "pauli.py: PauliSum.to_json_obj",
        "pauli.py: names config_float",
    ]


def test_no_config_format_outside_cli():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert config_format_outside_cli(modules) == []


PACKED_LAYOUT = ("_split_words", "_field", "_bit", "_letters", "_rows", "_Frontier")


def packed_layout_outside_propagation(modules: dict[str, str]) -> list[str]:
    """``module: names name`` for each ``PACKED_LAYOUT`` helper a module besides ``propagation`` names.

    ``modules`` maps a module's file name to its source; a mention in a
    docstring or comment is not a use.
    """
    found = []
    for module, source in modules.items():
        if module != "propagation.py":
            refs = _references(source)
            found += [f"{module}: names {name}" for name in PACKED_LAYOUT if refs[name]]
    return found


def test_checker_flags_the_packed_layout_outside_propagation():
    # a walk that reads codes with the engine's row reader, and a module that packs
    # a sum itself; the shared overlap and a docstring's mention pass
    modules = {
        "propagation.py": (
            "def _bit(words, b):\n    pass\n\n"
            "def _letters(p, sites):\n    return _bit(len(p), 0)\n\n"
            "def _bloch_scale(vals, codes, state):\n    return vals\n"
        ),
        "montecarlo.py": (
            "from .propagation import _bloch_scale, _letters\n\n"
            "def values(p, state):\n    return _bloch_scale(p, _letters(p, ()), state)\n"
        ),
        "experiments.py": (
            "from . import propagation\n\n"
            "def seed(obs):\n    return propagation._Frontier(obs.n, 0, *propagation._rows(obs, 0))\n"
        ),
        "cli.py": 'def show(res):\n    """Columns unpacked by ``_field``."""\n    return res.x\n',
    }
    assert packed_layout_outside_propagation(modules) == [
        "montecarlo.py: names _letters",
        "experiments.py: names _rows",
        "experiments.py: names _Frontier",
    ]


def test_no_packed_layout_outside_propagation():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert packed_layout_outside_propagation(modules) == []


def unused_parameters(source: str) -> list[str]:
    """``function: parameter (line N)``, in line order, for each parameter its function never names.

    A use in a nested function counts.  Dunder methods, whose signatures
    are fixed, and parameters whose names start with ``_`` are exempt.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        used = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [
            (p.lineno, f"{node.name}: {p.arg} (line {p.lineno})")
            for p in params
            if not p.arg.startswith("_") and p.arg not in used
        ]
    return [text for _, text in sorted(found)]


def test_checker_flags_an_unused_parameter():
    # the two offenders the rule found when it was added, and what it exempts
    source = (
        "class PauliRotation:\n"
        "    def embedded_masks(self, n):\n        return self.support\n\n"
        "    def __exit__(self, kind, value, tb):\n        pass\n\n"
        "def _base_payload(args, cfg, seed):\n    return {'config': cfg, 'seed': seed}\n\n"
        "def kernel(f, *steps, _rows=None, **opts):\n"
        "    def inner():\n        return steps, opts\n    return f, inner\n"
    )
    assert unused_parameters(source) == [
        "embedded_masks: n (line 2)",
        "_base_payload: args (line 8)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def global_statements(source: str) -> list[str]:
    """``global name (line N)`` for each name a ``global`` statement declares."""
    return [
        f"global {name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    ]


def test_checker_flags_a_global_statement():
    # the hand-made cache the rule found when it was added; a nonlocal is not flagged
    source = (
        "_GROUP_NAMES = None\n\n"
        "def clifford_group_1q():\n    global _GROUP_NAMES\n"
        "    if _GROUP_NAMES is None:\n        _GROUP_NAMES = ['I']\n    return _GROUP_NAMES\n\n"
        "def counter():\n    n = 0\n    def bump():\n        nonlocal n\n        n += 1\n"
        "    return bump\n"
    )
    assert global_statements(source) == ["global _GROUP_NAMES (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []


def python_floor() -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def test_checker_flags_syntax_above_the_floor():
    # an except* clause needs Python 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=python_floor())


def _docs_and_comments(source: str) -> str:
    """A module's docstrings and comments, one after another."""
    docs = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return "\n".join([d for d in docs if d] + [t.string for t in tokens if t.type == tokenize.COMMENT])


def _defined_names(source: str) -> set[str]:
    """Names a module defines: functions, classes, assigned names and attributes, parameters."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def stale_private_names(modules: dict[str, str], texts: dict[str, str]) -> list[str]:
    """``file: name`` for each private name in backticks that no module defines.

    ``modules`` maps a module's file name to its source, whose docstrings
    and comments are read; ``texts`` maps a document's file name to its
    text, read whole.  A name is private when it starts with ``_``, alone
    or after a dotted prefix (``module._name``).
    """
    defined = set().union(*map(_defined_names, modules.values()))
    read = {**{m: _docs_and_comments(s) for m, s in modules.items()}, **texts}
    return [
        f"{name}: {private}"
        for name, text in read.items()
        for private in sorted(set(re.findall(r"`(?:\w+\.)*(_\w+)`", text)))
        if private not in defined
    ]


def test_checker_flags_a_stale_private_name():
    # a docstring, a comment and a document that still name a deleted helper;
    # a private name in code or outside backticks is not a mention
    lib = (
        '"""Paths are mapped as ``_clifford`` maps masks, then ``_site``."""\n\n'
        "def _site(x):\n"
        '    """Read through ``lib._table``."""\n'
        "    return _clifford(x)  # see `_table` and _gone\n\n"
        "class Frontier:\n    def __init__(self):\n        self._table = '`_text`'\n"
    )
    readme = "The walk maps planes as `lib._clifford` does; `_site` reads ``__init__``.\n"
    assert stale_private_names({"lib.py": lib}, {"README.md": readme}) == [
        "lib.py: _clifford",
        "README.md: _clifford",
    ]


def test_no_stale_private_names_in_docs():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert stale_private_names(modules, {"README.md": (ROOT / "README.md").read_text()}) == []
