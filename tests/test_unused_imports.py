"""No module of the package, the tests or the demos imports a name it never
reads.  A name listed in the module's __all__ (when written as a list or
tuple), or imported by a statement that carries "# noqa: F401", counts as
read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/galois_arrow", "tests", "demos")
               for path in (ROOT / folder).glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = ("from os import path, sep  # noqa: F401\n"
              "import json, re\n"
              "from typing import (\n    Any,\n    List,\n)\n"
              "__all__ = ['List']\n"
              "print(json.dumps(re))\n"
              "def f() -> Any:\n    import sys\n    del sys\n")
    assert _unused_imports(source) == ["10: sys"]
