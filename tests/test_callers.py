"""Every function, method and class in src/conetrees is read there outside
its own body, as a name or an attribute, so what only the tests call lives
in tests/.  Imports, `__all__` and dunder methods do not count.  A method
name that two or more classes define passes on a read of any of them, so
each such definition names its own reader in SHARED."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import conetrees

# Read from outside src/, so kept without a caller there.
ALLOWED = {
    "pooled",  # bench/child.py: each pooled level's Lebesgue number and depth reads
    "dist_matrix",  # bench/child.py: the traced whole cone matrix
    "main",  # the console entry point, conetrees.cli:main
}

# (class, method) -> (file, from the repo root, and the text in it that
# reads that class's method), for every method name defined by two or more
# classes.
SHARED = {
    ("RootedTree", "all_pairs_dist"): (
        "src/conetrees/harness.py", "delta_hyperbolicity(t.all_pairs_dist)"),
    ("ProductEmbedding", "all_pairs_dist"): (
        "src/conetrees/harness.py", "_LevelPairs(grid, embedding.all_pairs_dist)"),
    ("Family", "lebesgue"): (
        "bench/child.py", "Family(result.space, cov.pooled.members).lebesgue()"),
    ("ColoredCovering", "lebesgue"): (
        "src/conetrees/harness.py", "cov.lebesgue()"),
    ("Family", "mesh"): (
        "src/conetrees/char_seq.py", "fam.mesh <= scale"),
    ("ColoredCovering", "mesh"): (
        "src/conetrees/char_seq.py", "cov.mesh > scale"),
    ("CharSequence", "n_colors"): (
        "src/conetrees/tree_embed.py", "seq.n_colors"),
    ("ColoredCovering", "n_colors"): (
        "src/conetrees/char_seq.py", "self.levels[0].n_colors"),
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


def _ledger_faults(trees, ledger) -> list[tuple[str, str]]:
    """The (class, method) pairs of a method name defined by two or more
    classes that have no ledger entry, then the entries that name no such
    pair."""
    owners = defaultdict(set)
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("__")):
                        owners[node.name].add(cls.name)
    shared = {(c, name) for name, classes in owners.items()
              if len(classes) > 1 for c in classes}
    return sorted(shared - ledger.keys()) + sorted(ledger.keys() - shared)


def test_every_definition_has_a_caller_in_src():
    assert _uncalled(_trees()) == []


def test_every_shared_method_name_has_a_complete_ledger():
    assert _ledger_faults(_trees(), SHARED) == []


@pytest.mark.parametrize("key", sorted(SHARED))
def test_ledger_names_a_reader_that_is_there(key):
    path, text = SHARED[key]
    root = Path(__file__).resolve().parents[1]
    assert text in (root / path).read_text(encoding="utf-8")


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


def test_ledger_finds_a_second_class_defining_a_shared_name():
    trees = _trees()
    trees["planted.py"] = ast.parse("class Planted:\n"
                                    "    def lebesgue(self):\n"
                                    "        return 0.0\n")
    assert _ledger_faults(trees, SHARED) == [("Planted", "lebesgue")]


def test_ledger_finds_an_entry_whose_class_lost_the_name():
    ledger = {**SHARED, ("RootedTree", "lebesgue"): ("src/conetrees/tree_embed.py", "")}
    assert _ledger_faults(_trees(), ledger) == [("RootedTree", "lebesgue")]
