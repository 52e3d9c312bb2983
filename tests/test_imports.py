"""Every import in the package, its tests and its benchmark is used.

A name an import binds must be read somewhere in its module: in code, or in
an annotation written as a string.  An import kept only so that another
module can patch or read the binding carries ``# noqa: F401`` on its line.
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


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name the module never reads."""
    module = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import_and_honours_noqa():
    source = ("import json\nimport os  # noqa: F401\nfrom typing import Optional\n"
              "def f(x: 'Optional[int]'): pass\n")
    assert unused_imports(source) == ["1: json"]
