"""Edgewise subdivision of cubical sets, the middle-evaluation collapse
sd3 C -> C, supports of subdivision vertices, and local lifting of the
double collapse through representables.

Every cubical set, the cubical set of a lattice included, is subdivided by
one engine: `cset.colimit` glues subdivided representable blocks, whose
nodes are the pairs (nondegenerate cell of C, cell of its block).  Every
cell of C is C(s)(z) for an epi s and a nondegenerate z, unique up to a
cube automorphism (Eilenberg-Zilber), so the blocks over degenerate cells
add nothing to the colimit over the category of elements: a node
(C(s)(z), u) is the node (z, sd(s) u).  The gluing data gives carrier
cells, subdivided subpresheaves, the collapse map, and induced maps of
subdivided cubical functions.

A local lift factors the double collapse sd9 C -> C on a star-shaped piece
S through a representable R: down is the first collapse on one piece of
sd3 C coordinatized by its top cell, and up: S -> R is found by one
first-hit search over the assignments of R's vertices to S's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import cube
from . import lattice as lat
from . import cset as cs
from .config import Budget


class SdError(ValueError):
    pass


@lru_cache(maxsize=None)
def _block(n, k, trunc):
    """Subdivided n-cube block: its lattice, labelled by chains of
    `cube.points(n)` indices, and its cubical set."""
    SL = lat.subdivide_lattice(lat.boolean(n), k)
    BL = cs.from_lattice(SL, trunc)
    return SL, BL


@lru_cache(maxsize=None)
def _collapse_component(n, j, ub, trunc):
    """The collapse component [1]^j -> [1]^n of block cell (j, ub) of the
    threefold subdivided n-cube: its vertex labels' middle elements."""
    SLn, BL = _block(n, 2, trunc)
    vertices = tuple(SLn.labels[v][1] for v in BL.keys[j][ub])
    phi = cube.from_vertices(j, n, vertices)
    if phi is None:
        raise SdError(f"internal: collapse component {vertices} not a cube map")
    return phi


@lru_cache(maxsize=None)
def _block_map(n_from, n_to, phi, k, trunc):
    """Cell table of the subdivided map between blocks, per dimension.

    phi: [1]^n_from -> [1]^n_to acts on block-lattice labels, which are
    tuples of vertices, through its vertex table.
    """
    SLf, BLf = _block(n_from, k, trunc)
    SLt, BLt = _block(n_to, k, trunc)
    elem_map = [SLt.index[tuple(phi.vertices[b] for b in label)] for label in SLf.labels]
    return tuple(
        tuple(BLt.key_index(j)[tuple(elem_map[v] for v in key)] for key in BLf.keys[j])
        for j in range(trunc + 1)
    )


class Subdivision:
    """sd_{k+1} C together with its gluing data."""

    def __init__(self, base, k):
        self.base = base
        self.k = k
        trunc = base.trunc
        levels = range(trunc + 1)
        self._normal = cs._normal_forms(base)
        nondeg = [base.nondegenerate(n) for n in levels]
        top = max((n for n in levels if nondeg[n]), default=0)
        blocks = [_block(n, k, trunc)[1] for n in range(top + 1)]
        # node (nondegenerate cell of C, cell of its block), numbered by the
        # block cell's dimension j, then by (n, i, u); the nodes of (j, n, i)
        # start at start[(j, n, i)]
        nodes, start = [], {}
        for j in levels:
            for n in range(top + 1):
                # nodes share their (n, i) and (j, u) tuples: sd9 of the 3-cube
                # glues 413,284 of them
                us = [(j, u) for u in blocks[n].cells(j)]
                for i in nondeg[n]:
                    start[(j, n, i)] = len(nodes)
                    c = (n, i)
                    nodes.extend((c, u) for u in us)

        def relations():
            # (C(g)(c), u) ~ (c, sd(g) u) for each face or transposition g out of
            # a nondegenerate c, read as (z, sd(s) u) for C(g)(c)'s normal form
            for n in range(top + 1):
                for family, key, g in cs._elementary_maps_into(n, trunc):
                    if family == "degens":
                        continue
                    moved = getattr(base, family)[key]
                    tables = _block_map(g.dom, n, g, k, trunc)
                    for i in nondeg[n]:
                        m, z, s = self._normal[g.dom][moved[i]]
                        aliases = _block_map(g.dom, m, s, k, trunc)
                        for j in levels:
                            lhs, rhs = start[(j, m, z)], start[(j, n, i)]
                            for v, w in zip(aliases[j], tables[j]):
                                yield lhs + v, rhs + w

        def act(phi, xs):
            # the nodes of dimension phi.cod are block after block, base
            # cell after base cell, in block-cell order
            for n in range(top + 1):
                tbl = blocks[n].action(phi)
                for i in nondeg[n]:
                    first = start[(phi.dom, n, i)]
                    yield from (first + v for v in tbl)

        dims = [u[0] for _, u in nodes]
        self.cset, self._cell_index, members = cs.colimit(trunc, dims, relations(), act)
        self._start = start
        # the nodes (c, u) of each cell, over nondegenerate cells c
        self._members = [[[nodes[x] for x in cls] for cls in level] for level in members]
        # carrier: the minimal-dimension member cell; all members must
        # contain it in their atoms, so a cell lies in sd(B) iff B holds its carrier
        self._carrier = {}
        for j, level in enumerate(self._members):
            for idx, cls in enumerate(level):
                c0, *cells = sorted({node[0] for node in cls})
                a0 = cs.atom(base, c0)
                for c in cells:
                    a = cs.atom(base, c)
                    if c[0] == c0[0] and a.sel != a0.sel:
                        raise SdError("internal: ambiguous carrier")
                    if not a0.issubset(a):
                        raise SdError("internal: carrier not minimal")
                self._carrier[(j, idx)] = c0

    def carrier_cell(self, cell):
        """The cell of the base whose subdivided block minimally carries `cell`."""
        found = self._carrier.get(cell)
        if found is None:
            raise SdError(f"no cell {cell} in the subdivision")
        return found

    def class_of(self, c, u):
        """The subdivided cell represented by block cell u over base cell c."""
        (n, i), (j, ub) = c, u
        if not self.base.has_cell(c):
            raise SdError(f"no cell {c} in the base")
        if not _block(n, self.k, self.base.trunc)[1].has_cell(u):
            raise SdError(f"no cell {u} in the block of {c}")
        m, z, s = self._normal[n][i]
        if m < n:
            ub = _block_map(n, m, s, self.k, self.base.trunc)[j][ub]
        return (j, self._cell_index[self._start[(j, m, z)] + ub])

    def supp_vertex(self, v):
        """Minimal subpresheaf B of the base with v a vertex of sd B."""
        return cs.atom(self.base, self.carrier_cell((0, v)))

    def eps(self):
        """The collapse sd3 C -> C (middle evaluation); requires k == 2."""
        if self.k != 2:
            raise SdError("the collapse is defined for threefold subdivision")
        return self._descend(self._eps_node, self.base, "internal: collapse not well defined")

    def _descend(self, target, cod, error):
        """The cubical function to cod sending each cell to the one index
        `target(c, u)` that all of its nodes (c, u) agree on."""
        maps = []
        for j in range(self.cset.trunc + 1):
            level = []
            for i in self.cset.cells(j):
                targets = {target(c, u) for c, u in self._members[j][i]}
                if len(targets) != 1:
                    raise SdError(error)
                level.append(targets.pop())
            maps.append(tuple(level))
        f = cs.CubicalFunction(self.cset, cod, tuple(maps))
        f.validate()
        return f

    def _eps_node(self, c, u):
        """Node (c, u) collapses to c moved by u's component, which is
        decided once per block cell."""
        n, i = c
        return self.base.act(_collapse_component(n, *u, self.base.trunc), i)

    def induced(self, f, sd_cod):
        """sd f : sd(dom) -> sd(cod) for a cubical function f from the base."""
        if f.dom is not self.base:
            raise SdError("function domain does not match the subdivided base")
        if sd_cod.base is not f.cod:
            raise SdError("function codomain does not match the subdivided codomain")
        return self._descend(
            lambda c, u: sd_cod.class_of(f(c), u)[1],
            sd_cod.cset,
            "internal: induced map not well defined",
        )


def subdivide(C, k):
    """sd_{k+1} C with gluing data; `k = 0` returns an isomorphic copy."""
    if k < 0:
        raise SdError("subdivision parameter must be >= 0")
    return Subdivision(C, k)


def sd3(C):
    return subdivide(C, 2)


@dataclass(eq=False)
class DoubleSubdivision:
    base: object
    r1: Subdivision
    r2: Subdivision
    eps1: cs.CubicalFunction
    eps2: cs.CubicalFunction

    @property
    def cset(self):
        return self.r2.cset


def sd9(C):
    """Two successive threefold subdivisions with their collapse maps."""
    r1 = sd3(C)
    r2 = sd3(r1.cset)
    return DoubleSubdivision(C, r1, r2, r1.eps(), r2.eps())


# ---------------------------------------------------------------------------
# partial cubical functions on subpresheaves


@dataclass(eq=False)
class SubFunction:
    """A cubical function defined on a subpresheaf."""

    dom_sub: cs.Subpresheaf
    cod: cs.CubicalSet
    values: dict  # (n, i) -> (n, j)

    def __call__(self, cell):
        found = self.values.get(cell)
        if found is None:
            raise SdError(f"no cell {cell} in the partial map's domain")
        return found

    def validate(self):
        """Keys are the cells of a closed domain, a key (n, x)'s value an n-cell of cod; equivariant."""
        S = self.dom_sub
        if len(self.values) != sum(map(len, S.sel)):
            raise SdError("partial map's keys are not the cells of its domain")
        images = [{} for _ in S.sel]  # per level: cell -> index of its image
        sizes = self.cod.sizes
        levels = range(min(len(S.sel), len(sizes)))
        for (n, x), (m, y) in self.values.items():
            if not (m == n and n in levels and x in S.sel[n] and 0 <= y < sizes[n]):
                raise SdError(f"partial map sends {(n, x)} to {(m, y)}")
            images[n][x] = y
        try:
            S.check_closed()
        except cs.CsetError as exc:
            raise SdError(f"partial map domain is not a subpresheaf: {exc}") from None
        failure = cs.equivariance_failure(S.parent, self.cod, S.sel, images)
        if failure is not None:
            raise SdError("partial map not {}-equivariant at table {} cell {}".format(*failure))
        return True


@dataclass(eq=False)
class LocalLift:
    """A factorization of the double collapse on a star-shaped piece."""

    dim: int
    up: SubFunction  # S -> representable(dim)
    down: cs.CubicalFunction  # representable(dim) -> C
    through: cs.CubicalSet  # representable(dim)


def _first_assignment(candidates, fits, budget):
    """The first list with one of `candidates[k]` at each position k such
    that `fits(k, assign)` holds once position k is set, or None.  Each
    value tried is charged to the budget."""
    assign = []

    def extend(k):
        if k == len(candidates):
            return True
        for p in candidates[k]:
            budget.spend()
            assign.append(p)
            if fits(k, assign) and extend(k + 1):
                return True
            assign.pop()
        return False

    return assign if extend(0) else None


@lru_cache(maxsize=None)
def _yoneda(j, d, trunc):
    """The cube maps [1]^j -> [1]^d of the j-cells of representable(d, trunc)."""
    return tuple(cube.from_vertices(j, d, key) for key in cs.representable(d, trunc).keys[j])


def local_lift(d9, S):
    """Factor the double collapse g = eps1 o eps2 through a representable on S.

    S must be a nonempty subpresheaf of sd9(C) contained in the closed
    star of one of its vertices.  Returns the factorization (up, down)
    with down o up equal to g restricted to S.  Steps:
    1. A is S's image under the second collapse, c_s the least atom of C
       whose subdivision meets A, and B the part of A over c_s.
    2. B must be the atom of its least nondegenerate top cell, of dimension
       d, and the cell phi of R = representable(d) goes to phi acting on
       that cell (Yoneda), a bijection onto B; down is the first collapse
       read through it.  Any top cell serves: a transposition of one is an
       automorphism of [1]^d.
    3. up is the first hit of one search over vertex assignments.  A
       vertex v of S ranges over the vertices p of R with down(p) = g(v);
       a cell of S, checked once its last vertex is set, goes to the cell
       of R with its assigned vertex table, which must exist and go to g of
       the cell under down.  Each value tried is charged to a default
       `Budget`; the lift exists, so a search without a hit is an internal
       error.
    4. up and down are validated, and down o up is checked cell by cell.
    """
    C, r1 = d9.base, d9.r1
    E = d9.cset
    if S.parent is not E:
        raise SdError("subpresheaf is not of the double subdivision")
    if S.is_empty():
        raise SdError("local lift of an empty subpresheaf")
    S.check_closed()
    if not any(S.issubset(cs.closed_star(E, v)) for v in S.sel[0]):
        raise SdError("subpresheaf is not contained in a closed star")

    A = d9.eps2.image_of(S)
    levels, carrier = range(r1.cset.trunc + 1), r1._carrier

    # least atom of C whose subdivision meets A: each such atom contains the
    # atom of the carrier of a cell of A, so it is the carrier atom that lies
    # inside all the others
    carriers = {carrier[(j, i)] for j in levels for i in A.sel[j]}
    atoms = list({a.sel: a for a in (cs.atom(C, c) for c in carriers)}.values())
    c_s = next((a for a in atoms if all(a.issubset(b) for b in atoms)), None)
    if c_s is None:
        raise SdError("no least atom meets the collapsed subpresheaf")
    # A ∩ sd(c_s): the cells of A whose carrier lies in c_s
    B = cs.Subpresheaf(r1.cset, [{i for i in A.sel[j] if c_s.contains(carrier[(j, i)])} for j in levels])

    # the intersection is a representable: find its top cell and coordinatize
    tops = [B.sel[j].intersection(r1.cset.nondegenerate(j)) for j in levels]
    top_dim = max((j for j in levels if tops[j]), default=0)
    top = min(tops[top_dim], default=None)
    if top is None or cs.atom(r1.cset, (top_dim, top)).sel != B.sel:
        raise SdError("intersection is not atomic")

    R = cs.representable(top_dim, C.trunc)
    index = [R.key_index(j) for j in range(R.trunc + 1)]
    eps1, eps2 = d9.eps1.maps, d9.eps2.maps

    def g(j, x):
        return eps1[j][eps2[j][x]]

    down_maps = []
    for j in range(R.trunc + 1):
        images = [r1.cset.act(phi, top) for phi in _yoneda(j, top_dim, C.trunc)]
        if sorted(images) != sorted(B.sel[j]):
            raise SdError("internal: intersection is not a full representable")
        down_maps.append(tuple(eps1[j][bi] for bi in images))
    down = cs.CubicalFunction(R, C, tuple(down_maps))
    down.validate()

    # vertex tables of S's cells, as positions in the search order; a cell
    # of R is its vertex table, and R's vertex p has the table (p,)
    order = sorted(S.sel[0])
    position = {v: k for k, v in enumerate(order)}
    tables, checks = {}, [[] for _ in order]
    for j in range(E.trunc + 1):
        corners = [
            E.action(cube.CubeMap(0, j, tuple(("c", b) for b in p))) for p in cube.points(j)
        ]
        for x in S.sel[j]:
            table = tuple(position[corner[x]] for corner in corners)
            tables[(j, x)] = table
            checks[max(table)].append((j, table, g(j, x)))

    def fits(k, assign):
        for j, table, target in checks[k]:
            cell = index[j].get(tuple(assign[t] for t in table))
            if cell is None or down.maps[j][cell] != target:
                return False
        return True

    candidates = [[p for p in R.cells(0) if down.maps[0][p] == g(0, v)] for v in order]
    assign = _first_assignment(candidates, fits, Budget())
    if assign is None:
        raise SdError("internal: no lift of the star through the representable")
    up_values = {
        (j, x): (j, index[j][tuple(assign[t] for t in table)])
        for (j, x), table in tables.items()
    }
    up = SubFunction(S, R, up_values)
    up.validate()

    for j in range(E.trunc + 1):
        for i in S.sel[j]:
            if down.maps[j][up_values[(j, i)][1]] != g(j, i):
                raise SdError("local lift does not commute with the double collapse")

    return LocalLift(top_dim, up, down, R)
