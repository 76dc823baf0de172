"""Every function, method and class in src/conetrees is read there outside
its own body, as a name or an attribute, so what only the tests call lives
in tests/.  Imports, `__all__` and dunder methods do not count."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import conetrees

# Read from outside src/, so kept without a caller there.
ALLOWED = {
    "pooled",  # bench/child.py: each pooled level's Lebesgue number and depth reads
    "dist_matrix",  # bench/child.py: the traced whole cone matrix
    "main",  # the console entry point, conetrees.cli:main
}


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(Path(conetrees.__file__).parent.glob("*.py"))}


def _reads(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _uncalled(trees) -> list[str]:
    reads = sum(map(_reads, trees.values()), Counter())
    return [node.name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name not in ALLOWED
            and reads[node.name] == _reads(node)[node.name]]


def test_every_definition_has_a_caller_in_src():
    assert _uncalled(_trees()) == []


@pytest.mark.parametrize("source, name", [
    ("def separation_margins(levels, r):\n"
     "    return _measure(levels, r, margins=True)\n", "separation_margins"),
    ("class Family:\n"
     "    def net_radius(self):\n"
     "        return self.net_radius()\n", "net_radius"),
])
def test_guard_finds_a_definition_with_no_caller(source, name):
    # exported by the package and calling itself, still with no caller
    trees = _trees()
    trees["planted.py"] = ast.parse(source)
    trees["__init__.py"].body += ast.parse(
        f"from .planted import {name}\n__all__ += [{name!r}]\n").body
    assert _uncalled(trees) == [name]
