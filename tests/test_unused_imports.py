"""Every name a module of the package imports is used there: read by its
code, listed in its `__all__`, or imported on a line marked `# noqa: F401`
(an import made for its side effect)."""

import ast
from pathlib import Path

import jortwist

SOURCES = sorted(Path(jortwist.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Sorted names that `source` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in lines[node.end_lineno - 1]):
            continue
        imported.update((alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "from a import b as c, d\n"
              "from e import f  # noqa: F401\n"
              "from g import h\n"
              "__all__ = ['h']\n"
              "print(d)\n")
    assert unused_imports(source) == ["c", "os"]


def test_every_imported_name_is_used():
    assert SOURCES
    unused = {path.name: names for path in SOURCES
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}
