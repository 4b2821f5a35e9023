"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "brownalg"


def _imported(tree):
    """(bound name, line) for each import outside `__future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _referenced(tree):
    """Names read anywhere in the module, including quoted annotations and
    the strings of `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
            except (SyntaxError, ValueError):
                pass
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = _referenced(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"
