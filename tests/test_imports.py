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
    "cat.monoid_to_json": "inverse of monoid_from_json; the round-trip tests pin the pair",
    "cat.cat_to_json": "inverse of cat_from_json; the round-trip tests pin the pair",
    "lattice.to_json": "inverse of lattice.from_json; the round-trip tests pin the pair",
    "cat.terminal_cat": "zig-zag equivalence to a point (ROADMAP item 7) needs it",
    "cat.nerve_map": "zig-zag equivalence (ROADMAP item 7) maps nerves with it",
    "cset.CubicalSet.all_cells": "the tests walk every cell of a set with it",
    "cset.disjoint_union": "the tests build spaces of several components with it",
    "t1.check_square_convention": "pins t1's square orientation, which test_t1 checks",
}

# Public method names that some other attribute shares: a method of a
# builtin type, another definition of the package or a data attribute.  A
# read of the name cannot tell the two apart, so each was checked by hand;
# the reason says where each method of that name is read.
COLLIDED_METHODS = {
    "find": "UnionFind.find: cset.quotient reads uf.find (str.find shares the name)",
    "index": "FiniteLattice.index: sd._block_map reads SLt.index (tuple.index shares the name)",
    "union": "UnionFind.union: cset.quotient and invariants read uf.union (set.union shares the name)",
    "issubset": "Subpresheaf.issubset: sd.local_lift reads S.issubset (frozenset.issubset shares the name)",
    "of": "Budget.of: oracle reads Budget.of; Interval.of: lattice.boolean_intervals reads Interval.of",
    "size": "FinMonoid.size: cat.cat_from_monoid reads M.size; FiniteLattice.size: lattice.product "
    "reads L.size (Poset.size is a field)",
    "validate": "read on each class: CubicalSet by cli.cmd_cset_validate, CubicalFunction and "
    "SubFunction by sd.local_lift, FinMonoid by cat.monoid_from_op, FinCat by "
    "cat.cat_from_monoid, CatPresentation by t1.fundamental_presentation",
    "cset": "Subdivision.cset: cli.cmd_cset_sd reads s.cset (TensorSet.cset is a field)",
    "class_of": "Subdivision.class_of: sd.Subdivision.induced reads sd_cod.class_of "
    "(Pi0Result.class_of is a field)",
    "classes": "UnionFind.classes: cset.CubicalSet.orbits reads uf.classes (TauResult.classes is a field)",
    "leq": "FiniteLattice.leq: lattice.product reads L.leq (Poset.leq is a field)",
    "table": "CubeMap.table: only the tests read it, to feed cube.from_function, which "
    "cli.cmd_cube_decide reads (FinMonoid.table is a field)",
}


def _reads(node):
    """Names read under `node`, as bare names or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _top_level_reads(module, tree):
    """(module, name) of each package definition read in `tree`: a bare name
    of its own module or imported from it by name, or an attribute of a name
    bound to its module (`from . import cset as cs`: `cs.closure`)."""
    defs = (node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    names = {node.name: (module, node.name) for node in defs}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in names:
            yield names[sub.id]
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            yield modules[sub.value.id], sub.attr


def _definitions(trees):
    """(key, module, name, node, is_method) per top-level function or class
    and per public method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", module, node.name, node, False
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", module, item.name, item, True


def _attributes(trees):
    """Data attribute names of the package: class-level fields and
    attributes assigned through an object."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                yield node.attr


def test_every_helper_is_read_outside_its_definition():
    """Each top-level function and class of the package is read through its
    module somewhere in the package outside its own definition, and each
    public method is read by name; or either is named in perfbench/ as code
    (`.name`, `"name"` or `'name'`, not as a word of prose).  The rest is
    exactly UNREAD_KEPT."""
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    attr_reads = Counter(name for tree in trees.values() for name in _reads(tree))
    reads = Counter(key for module, tree in trees.items() for key in _top_level_reads(module, tree))
    perfbench = "\n".join(path.read_text() for path in PERFBENCH.glob("*.py"))
    unread = set()
    for key, module, name, definition, is_method in _definitions(trees):
        if is_method:
            outside = attr_reads[name] - sum(read == name for read in _reads(definition))
        else:
            outside = reads[(module, name)] - sum(read == name for read in _reads(definition))
        if not outside and not re.search(rf"\.{name}\b|([\"']){name}\1", perfbench):
            unread.add(key)
    assert unread == set(UNREAD_KEPT), sorted(unread ^ set(UNREAD_KEPT))


def test_every_method_name_that_another_attribute_shares_is_checked_by_hand():
    """A public method is counted as read when any attribute of its name is
    read, so a name it shares with a builtin type's method, another package
    definition or a data attribute could keep a dead method alive; every
    such name is in COLLIDED_METHODS."""
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    defs = Counter(name for _, _, name, _, _ in _definitions(trees))
    builtin = {name for t in (str, bytes, int, float, tuple, list, dict, set, frozenset) for name in dir(t)}
    shared = builtin | set(_attributes(trees)) | {name for name, count in defs.items() if count > 1}
    methods = {name for _, _, name, _, is_method in _definitions(trees) if is_method}
    assert methods & shared == set(COLLIDED_METHODS), sorted((methods & shared) ^ set(COLLIDED_METHODS))
