"""Edgewise subdivision of cubical sets, the middle-evaluation collapse
sd3 C -> C, supports of subdivision vertices, and local lifting of the
double collapse through representables.

Every cubical set, the cubical set of a lattice included, is subdivided by
listing its cells by carriers.  sd C is the colimit of the subdivided
blocks sd[1]^n over the cells of C; each of its cells is represented by a
nondegenerate n-cell c of C and an interior cell u of c's block, one lying
on no proper face of [1]^n, and these pairs are unique up to the
permutations of [1]^n acting on both (Eilenberg-Zilber).  So a cell is
listed once, by its carrier c, the least cell of its permutation orbit,
and the least u of its orbit under c's stabilizer; a pair (c, u) with u on
the boundary moves to its carrier through the face of [1]^n that carries
u, C's face action and the normal form of the face of c.  The listing
gives carrier cells, subdivided subpresheaves, the collapse map, and
induced maps of subdivided cubical functions.

A local lift factors the double collapse sd9 C -> C on a star-shaped piece
S through a representable R: down is the first collapse on one piece of
sd3 C coordinatized by its top cell, and up: S -> R is found by one
first-hit search over the assignments of R's vertices to S's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

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


@lru_cache(maxsize=None)
def _faces(n):
    """The faces [1]^p -> [1]^n of the n-cube by increasing p, the identity
    last: each coordinate constant or free, the free ones in order."""
    out = []
    for spec in product((0, 1, None), repeat=n):
        free = iter(range(1, n + 1))
        outputs = tuple(cube.proj(next(free)) if b is None else ("c", b) for b in spec)
        out.append(cube.CubeMap(spec.count(None), n, outputs))
    return tuple(sorted(out, key=lambda delta: delta.dom))


@lru_cache(maxsize=None)
def _block_carriers(n, k, trunc):
    """Per dimension j, the (face, v) of each j-cell u of the block over
    [1]^n: `_faces(n)[face]` is the least face whose subdivision holds u,
    and v the interior cell of that face's block it sends to u.  Interior
    cells are carried by the identity, the last face, as themselves."""
    carriers = [[None] * size for size in _block(n, k, trunc)[1].sizes]
    for f, delta in enumerate(_faces(n)):
        for level, image in zip(carriers, _block_map(delta.dom, n, delta, k, trunc)):
            for v, u in enumerate(image):
                if level[u] is None:
                    level[u] = (f, v)
    return tuple(map(tuple, carriers))


@lru_cache(maxsize=None)
def _listing(n, stab, k, trunc):
    """Per dimension j, (listed, position): the interior j-cells of the
    block over [1]^n that are least in their orbit under the permutations
    `stab`, in order, and each interior cell's position among them (None
    on the boundary)."""
    interior = len(_faces(n)) - 1
    moves = [_block_map(n, n, sigma, k, trunc) for sigma in stab]
    out = []
    for j, carried in enumerate(_block_carriers(n, k, trunc)):
        least = [min(m[j][u] for m in moves) if f == interior else None for u, (f, _) in enumerate(carried)]
        listed = sorted({u for u in least if u is not None})
        rank = {u: r for r, u in enumerate(listed)}
        out.append((tuple(listed), tuple(None if u is None else rank[u] for u in least)))
    return tuple(out)


class Subdivision:
    """sd_{k+1} C listed by carriers.  The j-cells run over (n, c, u) in
    order: c a nondegenerate n-cell of C least in its orbit under the
    permutations of [1]^n, u an interior j-cell of its block least in its
    orbit under c's stabilizer.  `cset.keys[j]` holds the (carrier, u) pair
    of each j-cell; a generator table resolves u's image through
    `_resolve`."""

    def __init__(self, base, k):
        self.base = base
        self.k = k
        trunc = base.trunc
        levels = range(trunc + 1)
        self._normal = cs._normal_forms(base)
        nondeg = [base.nondegenerate(n) for n in levels]
        top = max((n for n in levels if nondeg[n]), default=0)
        # each nondegenerate n-cell is C(sigma)(c) for the least cell c of its
        # orbit under the permutations sigma of [1]^n; c's stabilizer picks
        # its listed block cells
        self._orbit, stabs = {}, {}
        for n in range(top + 1):
            perms = cs._epis(n, n)
            moved = [base.action(sigma) for sigma in perms]
            for i in nondeg[n]:
                if (n, i) not in self._orbit:
                    stabs[(n, i)] = tuple(sigma for sigma, tbl in zip(perms, moved) if tbl[i] == i)
                    for sigma, tbl in zip(perms, moved):
                        self._orbit.setdefault((n, tbl[i]), ((n, i), sigma))
        self._carried = [_block_carriers(n, k, trunc) for n in range(top + 1)]
        # per dimension j and carrier c: c's first j-cell, the positions of
        # its block's interior cells, and its listed cells
        self._start = [{} for _ in levels]
        keys = [[] for _ in levels]
        for c, stab in stabs.items():
            for j, (listed, position) in enumerate(_listing(c[0], stab, k, trunc)):
                self._start[j][c] = (len(keys[j]), position, listed)
                keys[j].extend((c, u) for u in listed)
        self._routes = {}

        def table(family, key, g):
            out = []
            for c, (_, _, listed) in self._start[g.cod].items():
                moved = getattr(_block(c[0], k, trunc)[1], family)[key]
                out.extend(self._resolve(c, g.dom, moved[u]) for u in listed)
            return tuple(out)

        self.cset = cs._tabulate(trunc, tuple(map(len, keys)), table, keys=tuple(map(tuple, keys)))

    def _resolve(self, c, j, u):
        """The index of the j-cell of node (c, u): c a nondegenerate n-cell
        of the base and u a j-cell of its block.  The face carrying u, C's
        face action, the normal form of the face of c and the orbit of its
        nondegenerate cell are read once per (c, face, j)."""
        f, v = self._carried[c[0]][j][u]
        route = self._routes.get((c, f, j))
        if route is None:
            (n, i), delta = c, _faces(c[0])[f]
            m, z, s = self._normal[delta.dom][self.base.act(delta, i)]
            carrier, sigma = self._orbit[(m, z)]
            first, position, _ = self._start[j][carrier]
            phi = cube.compose(sigma, s)
            moves = None if phi.is_identity() else _block_map(delta.dom, m, phi, self.k, self.base.trunc)[j]
            route = self._routes[(c, f, j)] = (first, position, moves)
        first, position, moves = route
        return first + position[v if moves is None else moves[v]]

    def carrier_cell(self, cell):
        """The cell of the base whose subdivided block minimally carries `cell`."""
        if not self.cset.has_cell(cell):
            raise SdError(f"no cell {cell} in the subdivision")
        return self.cset.keys[cell[0]][cell[1]][0]

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
        return (j, self._resolve((m, z), j, ub))

    def supp_vertex(self, v):
        """Minimal subpresheaf B of the base with v a vertex of sd B."""
        return cs.atom(self.base, self.carrier_cell((0, v)))

    def eps(self):
        """The collapse sd3 C -> C (middle evaluation); requires k == 2.  The
        action tables of a listing's collapse components serve every carrier
        of that listing."""
        if self.k != 2:
            raise SdError("the collapse is defined for threefold subdivision")
        tables = lru_cache(maxsize=None)(
            lambda n, j, us: [self.base.action(_collapse_component(n, j, u, self.base.trunc)) for u in us]
        )
        return self._descend(lambda c, j, listed: [t[c[1]] for t in tables(c[0], j, listed)], self.base)

    def _descend(self, images, cod):
        """The cubical function to cod sending the j-cells listed under each
        carrier c, (c, u) for u in `listed`, to `images(c, j, listed)`."""
        maps = tuple(
            tuple(y for c, (_, _, listed) in starts.items() for y in images(c, j, listed))
            for j, starts in enumerate(self._start)
        )
        f = cs.CubicalFunction(self.cset, cod, maps)
        f.validate()
        return f

    def induced(self, f, sd_cod):
        """sd f : sd(dom) -> sd(cod) for a cubical function f from the base."""
        if f.dom is not self.base:
            raise SdError("function domain does not match the subdivided base")
        if sd_cod.base is not f.cod:
            raise SdError("function codomain does not match the subdivided codomain")
        return self._descend(lambda c, j, us: (sd_cod.class_of(f(c), (j, u))[1] for u in us), sd_cod.cset)


def subdivide(C, k):
    """sd_{k+1} C listed by carriers; `k = 0` returns an isomorphic copy."""
    if type(k) is not int:
        raise SdError(f"subdivision parameter must be an int, got {k!r}")
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

    collapse = cached_property(lambda self: self.eps1.compose_after(self.eps2))  # g = eps1 o eps2
    _downs = cached_property(lambda self: {})  # local_lift's down per top cell of sd3 C


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
    Read once per set: the cells' vertex tables; once per double
    subdivision: g, and down per top cell (B is its atom); per call: S's
    checks, steps 1 and 3, up and its checks.
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
    levels, keys = range(r1.cset.trunc + 1), r1.cset.keys

    # least atom of C whose subdivision meets A: each such atom contains the
    # atom of the carrier of a cell of A, so it is the carrier atom that lies
    # inside all the others
    carriers = {keys[j][i][0] for j in levels for i in A.sel[j]}
    atoms = list({a.sel: a for a in (cs.atom(C, c) for c in carriers)}.values())
    c_s = next((a for a in atoms if all(a.issubset(b) for b in atoms)), None)
    if c_s is None:
        raise SdError("no least atom meets the collapsed subpresheaf")
    # A ∩ sd(c_s): the cells of A whose carrier lies in c_s
    B = cs.Subpresheaf(r1.cset, [{i for i in A.sel[j] if c_s.contains(keys[j][i][0])} for j in levels])

    # the intersection is a representable: find its top cell and coordinatize
    tops = [B.sel[j].intersection(r1.cset.nondegenerate(j)) for j in levels]
    top_dim = max((j for j in levels if tops[j]), default=0)
    top = min(tops[top_dim], default=None)
    if top is None or cs.atom(r1.cset, (top_dim, top)).sel != B.sel:
        raise SdError("intersection is not atomic")

    R = cs.representable(top_dim, C.trunc)
    index = [R.key_index(j) for j in range(R.trunc + 1)]
    g, down = d9.collapse.maps, d9._downs.get((top_dim, top))
    if down is None:
        images = [[r1.cset.act(phi, top) for phi in _yoneda(j, top_dim, C.trunc)] for j in levels]
        if any(sorted(level) != sorted(cells) for level, cells in zip(images, B.sel)):
            raise SdError("internal: intersection is not a full representable")
        down = cs.CubicalFunction(R, C, [[d9.eps1.maps[j][b] for b in images[j]] for j in levels])
        down.validate()
        d9._downs[(top_dim, top)] = down

    # a cell of S is checked once its vertex table's last vertex is set; a
    # cell of R is its vertex table, and `at` maps S's vertices to R's
    order, at = sorted(S.sel[0]), [None] * E.sizes[0]
    position = {v: k for k, v in enumerate(order)}
    checks = [[] for _ in order]
    for j, level in enumerate(S.sel):
        for x in level:
            table = E._vertices[j][x]
            checks[position[max(table)]].append((j, x, table, g[j][x]))

    def fits(k, assign):
        at[order[k]] = assign[k]
        for j, _, table, target in checks[k]:
            cell = index[j].get(tuple(map(at.__getitem__, table)))
            if cell is None or down.maps[j][cell] != target:
                return False
        return True

    candidates = [[p for p in R.cells(0) if down.maps[0][p] == g[0][v]] for v in order]
    assign = _first_assignment(candidates, fits, Budget())
    if assign is None:
        raise SdError("internal: no lift of the star through the representable")
    up_values, at = {}, dict(zip(order, assign))
    for j, x, table, target in (check for level in checks for check in level):
        cell = index[j][tuple(map(at.__getitem__, table))]
        if down.maps[j][cell] != target:
            raise SdError("local lift does not commute with the double collapse")
        up_values[(j, x)] = (j, cell)
    up = SubFunction(S, R, up_values)
    up.validate()

    return LocalLift(top_dim, up, down, R)
