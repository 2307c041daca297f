"""Every name a module of the package imports is used there: read by its
code, listed in its `__all__`, or imported on a line marked `# noqa: F401`
(an import made for its side effect).  The package imports the standard
library only, and no test imports sympy."""

import ast
import sys
from pathlib import Path

import jortwist

SOURCES = sorted(Path(jortwist.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.rglob("*.py"))


def imports(tree):
    """The import statements of a parsed module, at any depth."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def absolute_imports(source):
    """The top-level modules that `source` imports by absolute name."""
    names = set()
    for node in imports(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def unused_imports(source):
    """Sorted names that `source` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in imports(tree):
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


def test_package_imports_only_the_stdlib_and_no_test_imports_sympy():
    assert absolute_imports("import os.path, a.b\nfrom . import c\n"
                            "from .d import e\nfrom f.g import h\n"
                            "def i():\n    import sympy\n") == {
        "os", "a", "f", "sympy"}
    foreign = {path.name: names for path in SOURCES
               if (names := sorted(absolute_imports(path.read_text(
                   encoding="utf-8")) - sys.stdlib_module_names))}
    assert foreign == {}
    assert TESTS
    assert [path.name for path in TESTS if "sympy" in absolute_imports(
        path.read_text(encoding="utf-8"))] == []
