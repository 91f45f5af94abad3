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
    uf = cset.UnionFind(C.cells(0))
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
    table: tuple  # class monoid table when coefficients are commutative
    unit: int  # the class of the all-unit weighting


def h1(C, tau, budget=None, with_table=True):
    """Directed 1-cohomology with monoid coefficients.

    Weightings are functors from the fundamental category presentation to
    tau (unit on degenerate edges, one square relation per nondegenerate
    square); two weightings are identified by zig-zags of natural
    transformations, exactly as in `hom_classes`.  Each class is reported
    by its lex-least weighting, in that order; `unit` is the class of the
    all-unit weighting.  For commutative tau, `table` is the class table
    of the pointwise product.  Zig-zags are a congruence then, so a
    group's table is read off the products of representatives; other
    monoids check every member pair (switch the table off when only the
    count is wanted).  A one-object FinCat is read as the monoid of its
    morphisms; a category with more objects is refused.
    """
    tau = cat.as_monoid(tau)
    if tau is None:
        raise InvariantError("h1 coefficients must be a monoid or a category with one object")
    b = Budget.of(budget)
    classes, class_of, _ = cat.functor_homotopy_classes(t1.fundamental_presentation(C)[0], tau, b)
    obj, n_gen = classes[0][0].obj_map, len(classes[0][0].gen_map)

    def product_class(g1, g2):
        b.spend(len(g1) * len(g2))
        found = {
            class_of(cat.Functor(obj, tuple(map(tau.op, F.gen_map, G.gen_map))))
            for F in g1
            for G in g2
        }
        if len(found) != 1 or None in found:
            raise InvariantError("class monoid not well defined")
        return found.pop()

    table = None
    if with_table and tau.is_commutative():
        table = tuple(tuple(product_class(g1, g2) for g2 in classes) for g1 in classes)
    unit = class_of(cat.Functor(obj, (tau.unit,) * n_gen))
    reps = tuple(members[0].gen_map for members in classes)
    return H1Result(tau, len(classes), reps, table, unit)


def h1_monoid(result):
    """The class monoid of a commutative-coefficient computation."""
    if result.table is None:
        raise InvariantError("class monoid only defined for commutative coefficients")
    M = cat.FinMonoid(result.table, result.unit)
    try:
        M.validate()
    except cat.CatError as exc:
        raise InvariantError(f"class table is not a monoid: {exc}") from None
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
    Each n-cell and (n+1)-cell examined is charged to the budget.
    """
    if n < 1:
        raise InvariantError(f"loop degree must be >= 1, got {n}")
    if C.trunc < n + 1:
        raise InvariantError("truncation too small for this loop degree")
    if not 0 <= v < C.sizes[0]:
        raise InvariantError(f"vertex {v} out of range 0..{C.sizes[0] - 1}")
    Budget.of(budget).spend(C.sizes[n] + C.sizes[n + 1])
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
    uf = cset.UnionFind(zero_cells)
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
        # a square whose (1, 0) face is the degenerate loop composes the
        # classes of its (2, 0) and (1, 1) faces into that of its (2, 1) face
        class_of = {x: ci for ci, g in enumerate(groups) for x in g}
        sv = next(iter(vs.sel[1]))
        targets = {}
        for sq in C.cells(2):
            if C.faces[(2, 1, 0)][sq] == sv:
                a, b, c = (
                    class_of.get(C.faces[key][sq]) for key in ((2, 2, 0), (2, 1, 1), (2, 2, 1))
                )
                if None not in (a, b, c):
                    targets.setdefault((a, b), set()).add(c)
        if any(len(found) > 1 for found in targets.values()):
            raise InvariantError("loop composition not well defined")
        product, k = {pair: found.pop() for pair, found in targets.items()}, len(groups)
        rows = tuple(tuple(product.get((a, b)) for b in range(k)) for a in range(k))
        if all(None not in row for row in rows):
            table = rows
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
    functor_count: int


def hom_classes(B, S, budget=None):
    """Directed homotopy classes of maps from B into the nerve of S.

    Computed as functors out of the fundamental category presentation of
    B, modulo zig-zags of natural transformations.  The route is chosen in
    `cat.functor_homotopy_classes`: a group target, given as a FinMonoid
    or a one-object FinCat, is gauge fixed, and any other target is
    enumerated in full and classified by transformation search.
    """
    classes, _, functor_count = cat.functor_homotopy_classes(t1.fundamental_presentation(B)[0], S, budget)
    return HomClassesResult(len(classes), functor_count)


def hom_classes_presheaf_oracle(B, C, budget=None):
    """[B, C] by the oracle, desk-scale only: cubical functions modulo
    elementary homotopies, each pair decided by a pinned first-hit search
    over the cylinder.  An independent check of `hom_classes` with C a nerve."""
    maps, edges = oracle.homotopy_graph(B, C, budget)
    uf = cset.UnionFind(range(len(maps)))
    for i, j in edges:
        uf.union(i, j)
    return HomClassesResult(len(uf.classes()), len(maps))
