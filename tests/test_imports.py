"""Every module-level import in the package is read by its module, and
every helper the package defines is read somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import dicube

MODULES = sorted(Path(dicube.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert imported <= read, sorted(imported - read)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Helpers that nothing reads yet, each kept for the reason given.
UNREAD_KEPT = {
    "monoid_to_json": "inverse of monoid_from_json; the round-trip tests pin the pair",
    "cat_to_json": "inverse of cat_from_json; the round-trip tests pin the pair",
    "terminal_cat": "zig-zag equivalence to a point (ROADMAP item 7) needs it",
    "nerve_map": "zig-zag equivalence (ROADMAP item 7) maps nerves with it",
    "CubicalSet.all_cells": "the tests walk every cell of a set with it",
    "disjoint_union": "the tests build spaces of several components with it",
    "check_square_convention": "pins t1's square orientation, which test_t1 checks",
}


def _reads(node):
    """Names read under `node`, as bare names or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_helper_is_read_outside_its_definition():
    """Each top-level function and class and each public method of the
    package is read somewhere in the package outside its own definition,
    or named in perfbench/ as code (`.name`, `"name"` or `'name'`, not as
    a word of prose); the rest is exactly UNREAD_KEPT."""
    trees = [ast.parse(path.read_text()) for path in MODULES]
    reads = Counter(name for tree in trees for name in _reads(tree))
    perfbench = "\n".join(path.read_text() for path in PERFBENCH.glob("*.py"))
    unread = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{item.name}", item.name, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
            for key, name, definition in defs:
                outside = reads[name] - sum(read == name for read in _reads(definition))
                if not outside and not re.search(rf"\.{name}\b|([\"']){name}\1", perfbench):
                    unread.add(key)
    assert unread == set(UNREAD_KEPT), sorted(unread ^ set(UNREAD_KEPT))
