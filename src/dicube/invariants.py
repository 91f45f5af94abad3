"""Directed invariants of finite cubical sets.

Connected components, directed loop monoids, monoid-valued directed
1-cohomology computed as edge weightings modulo natural-transformation
zig-zags, and directed homotopy classes of maps into nerves, with the
exhaustive presheaf-side computation kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cat, cset, oracle, t1
from .config import Budget


class InvariantError(ValueError):
    pass


@dataclass(frozen=True)
class Pi0Result:
    count: int
    reps: tuple
    class_of: tuple


def pi0(C):
    """Vertex classes under lower-face ~ upper-face over all edges."""
    if C.trunc < 1:
        raise InvariantError("components need cells up to dimension 1")
    uf = cset.UnionFind()
    for v in C.cells(0):
        uf.add(v)
    for e in C.cells(1):
        uf.union(C.faces[(1, 1, 0)][e], C.faces[(1, 1, 1)][e])
    groups = uf.classes()
    class_of = {v: ci for ci, g in enumerate(groups) for v in g}
    return Pi0Result(
        len(groups), tuple(g[0] for g in groups), tuple(class_of[v] for v in C.cells(0))
    )


@dataclass(frozen=True)
class H1Result:
    coeff: cat.FinMonoid
    count: int
    reps: tuple  # one weighting (generator-value tuple) per class
    classes: tuple
    table: tuple  # class monoid table when coefficients are commutative


def h1(C, tau, budget=None, with_table=True):
    """Directed 1-cohomology with monoid coefficients.

    Weightings are functors from the fundamental category presentation to
    tau (unit on degenerate edges, one square relation per nondegenerate
    square); two weightings are identified by zig-zags of natural
    transformations, exactly as in `hom_classes`.  h1 adds a representative
    per class and, for commutative tau, the class table of the pointwise
    monoid structure; well-definedness is asserted exhaustively over
    member pairs (so the table computation has its own budget and can be
    switched off when only the count is wanted).
    """
    b = Budget.of(budget)
    functors, classes = _functor_classes(C, tau, b)
    table = None
    if with_table and tau.is_commutative():
        class_of = {i: ci for ci, grp in enumerate(classes) for i in grp}
        index = {F: i for i, F in enumerate(functors)}
        rows = []
        for g1 in classes:
            row = []
            for g2 in classes:
                targets = set()
                for i in g1:
                    for j in g2:
                        b.spend()
                        prod = cat.Functor(
                            functors[i].obj_map,
                            tuple(
                                tau.table[x][y]
                                for x, y in zip(functors[i].gen_map, functors[j].gen_map)
                            ),
                        )
                        targets.add(class_of[index[prod]])
                if len(targets) != 1:
                    raise InvariantError("class monoid not well defined")
                row.append(targets.pop())
            rows.append(tuple(row))
        table = tuple(rows)
    reps = tuple(functors[grp[0]].gen_map for grp in classes)
    return H1Result(tau, len(classes), reps, tuple(tuple(g) for g in classes), table)


def h1_monoid(result):
    """The class monoid of a commutative-coefficient computation."""
    if result.table is None:
        raise InvariantError("class monoid only defined for commutative coefficients")
    # the class of the unit weighting is the table's two-sided identity,
    # which is unique when it exists
    T = result.table
    units = [u for u in range(len(T)) if all(T[u][x] == x == T[x][u] for x in range(len(T)))]
    if not units:
        raise InvariantError("class table has no unit")
    M = cat.FinMonoid(T, units[0])
    M.validate()
    return M


@dataclass(frozen=True)
class TauResult:
    degree: int
    count: int
    classes: tuple
    table: tuple  # monoid table for degree 1 when all pairs compose


def loop_classes(C, v, n, budget=None):
    """Directed loop classes: maps of the n-cube collapsing the boundary to v.

    Cells of the loop complex in degree 0 are n-cells whose boundary
    lies in the minimal subpresheaf at v; paths between them are
    (n+1)-cells with the first n side pairs also collapsed.  For n = 1 on
    a one-vertex complex the classes compose through squares with one
    degenerate side, giving the loop monoid when every pair composes.
    """
    if n < 1 or C.trunc < n + 1:
        raise InvariantError("truncation too small for this loop degree")
    vs = cset.vertex_sub(C, v)
    zero_cells = [
        x
        for x in C.cells(n)
        if all(
            C.faces[(n, i, eps)][x] in vs.sel[n - 1]
            for i in range(1, n + 1)
            for eps in (0, 1)
        )
    ]
    uf = cset.UnionFind()
    for x in zero_cells:
        uf.add(x)
    zero_set = set(zero_cells)
    for y in C.cells(n + 1):
        if all(
            C.faces[(n + 1, i, eps)][y] in vs.sel[n]
            for i in range(1, n + 1)
            for eps in (0, 1)
        ):
            lo = C.faces[(n + 1, n + 1, 0)][y]
            hi = C.faces[(n + 1, n + 1, 1)][y]
            if lo in zero_set and hi in zero_set:
                uf.union(lo, hi)
    groups = uf.classes()
    table = None
    if n == 1 and C.sizes[0] == 1:
        class_of = {x: ci for ci, g in enumerate(groups) for x in g}
        sv = next(iter(vs.sel[1]))
        rows = []
        total = True
        for g1 in groups:
            row = []
            for g2 in groups:
                targets = set()
                for sq in C.cells(2):
                    if (
                        C.faces[(2, 1, 0)][sq] == sv
                        and C.faces[(2, 2, 0)][sq] in g1
                        and C.faces[(2, 1, 1)][sq] in g2
                    ):
                        tgt = C.faces[(2, 2, 1)][sq]
                        if tgt in class_of:
                            targets.add(class_of[tgt])
                if len(targets) > 1:
                    raise InvariantError("loop composition not well defined")
                row.append(targets.pop() if targets else None)
            if None in row:
                total = False
            rows.append(tuple(row))
        if total:
            table = tuple(rows)
    return TauResult(n, len(groups), tuple(tuple(g) for g in groups), table)


def loop_monoid(C, v, budget=None):
    res = loop_classes(C, v, 1, budget)
    if res.table is None:
        raise InvariantError("loop classes do not all compose")
    sv = next(iter(cset.vertex_sub(C, v).sel[1]))
    unit_class = next(ci for ci, g in enumerate(res.classes) if sv in g)
    M = cat.FinMonoid(res.table, unit_class)
    M.validate()
    return M


@dataclass(frozen=True)
class HomClassesResult:
    count: int
    classes: tuple
    functor_count: int


def hom_classes(B, S, budget=None):
    """Directed homotopy classes of maps from B into the nerve of S.

    Computed as functors out of the fundamental category presentation of
    B, modulo zig-zags of natural transformations.
    """
    functors, classes = _functor_classes(B, S, Budget.of(budget))
    return HomClassesResult(len(classes), tuple(tuple(g) for g in classes), len(functors))


def _functor_classes(B, S, budget):
    """Functors out of t1(B) into S and their homotopy classes (index lists)."""
    P, _ = t1.fundamental_presentation(B)
    functors = cat.enumerate_functors(P, S, budget)
    return functors, cat.functor_homotopy_classes(P, S, functors, budget)


def hom_classes_presheaf_oracle(B, C, budget=None):
    """Exhaustive computation of [B, C]: all cubical functions modulo
    elementary homotopies through the cylinder.  Desk-scale only; used as
    an independent check of `hom_classes` with C a nerve."""
    maps, edges = oracle.homotopy_graph(B, C, budget)
    uf = cset.UnionFind()
    for i in range(len(maps)):
        uf.add(i)
    for i, j in edges:
        uf.union(i, j)
    groups = uf.classes()
    return HomClassesResult(len(groups), tuple(tuple(g) for g in groups), len(maps))
