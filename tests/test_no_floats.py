"""Floats never enter the algebra: no float literal and no float() call in
any module of the package."""

import ast
from pathlib import Path

import jortwist

SOURCES = sorted(Path(jortwist.__file__).parent.glob("*.py"))


def float_uses(source):
    """(line, what) for each float literal or float() call in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "literal %r" % node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
    return found


def test_scanner_finds_literals_and_calls():
    assert float_uses("a = 1.5\nb = float(2)\nc = 1e3\nd = 3\n") == [
        (1, "literal 1.5"), (2, "float() call"), (3, "literal 1000.0")]


def test_no_float_in_the_package():
    assert SOURCES
    found = {path.name: float_uses(path.read_text()) for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}
