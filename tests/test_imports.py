"""Every import in the package, its tests and its benchmark is used.

A name an import binds must be read somewhere in its module: in code, or in
an annotation written as a string.  An import kept only so that another
module can patch or read the binding carries ``# noqa: F401`` on its line.
In the package, such a binding, and each name ``cli.__getattr__`` serves,
is kept only for ``perfbench/tracer.py``, which patches the bindings its
``TRACED`` table lists: each must be listed there, and none may remain when
the tracer is gone.  The tracer is read as text, never imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "evogen").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including one written as a string."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= _annotation_names(ast.parse(part.value, mode="eval"))
    return names


def _imports(source: str) -> list[tuple[str, int, bool]]:
    """``(name, line, kept)`` for each imported name the module never reads;
    `kept` when its line carries ``# noqa: F401``."""
    module = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, tuple[int, bool]] = {}
    read: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = (
                    alias.lineno, "# noqa: F401" in lines[alias.lineno - 1])
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
    return [(name, line, kept) for name, (line, kept) in imported.items()
            if name not in read]


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name the module never reads and
    whose line carries no ``# noqa: F401``."""
    return [f"{line}: {name}" for name, line, kept in _imports(source) if not kept]


def kept_imports(source: str) -> list[str]:
    """Each imported name the module never reads whose line carries
    ``# noqa: F401``: a binding kept for another module to patch or read."""
    return [name for name, _, kept in _imports(source) if kept]


def getattr_names(source: str) -> set[str]:
    """The names a module-level ``__getattr__`` compares its argument with:
    the attributes it serves."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            return {part.comparators[0].value for part in ast.walk(node)
                    if isinstance(part, ast.Compare)
                    and isinstance(part.comparators[0], ast.Constant)}
    return set()


def traced_bindings() -> set[tuple[str, str]]:
    """The ``(module, name)`` bindings ``TRACED`` in perfbench/tracer.py
    lists, read from its text; none when the tracer is absent."""
    tracer = ROOT / "perfbench" / "tracer.py"
    if not tracer.is_file():
        return set()
    table = next(node.value for node in ast.parse(tracer.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return {(module, name) for bindings in ast.literal_eval(table).values()
            for module, name in bindings}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import_and_honours_noqa():
    source = ("import json\nimport os  # noqa: F401\nfrom typing import Optional\n"
              "def f(x: 'Optional[int]'): pass\n")
    assert unused_imports(source) == ["1: json"]


def test_scan_finds_a_kept_import_and_the_names_getattr_serves():
    source = ("import json  # noqa: F401\nimport os  # noqa: F401\nimport re\n"
              "def __getattr__(name):\n    if name == 'run':\n        return os\n"
              "    if name == 'stats':\n        return re\n")
    assert kept_imports(source) == ["json"]
    assert getattr_names(source) == {"run", "stats"}


def test_bindings_kept_in_the_package_are_those_the_tracer_patches():
    """Each kept import binds, and ``cli.__getattr__`` serves, a binding the
    tracer patches, so when the tracer goes this names every site left."""
    traced = traced_bindings()
    package = ROOT / "src" / "evogen"
    kept = {(path.stem, name) for path in sorted(package.glob("*.py"))
            for name in kept_imports(path.read_text(encoding="utf-8"))}
    served = {("cli", name)
              for name in getattr_names((package / "cli.py").read_text(encoding="utf-8"))}
    assert kept - traced == set()
    assert served == {(module, name) for module, name in traced if module == "cli"}
