"""Finite, dimension-truncated cubical sets.

A cubical set stores every cell up to the truncation dimension, including
degenerate ones, together with the elementary generator actions: faces
d_{eps,i}, degeneracies s_i and adjacent transpositions t_i.
`_elementary_maps_into` is the one list of these generator tables: it pairs
each elementary cube map with the family (`faces`, `degens`, `transps`)
and key of its table, and every builder and checker here walks it.  The
action of an arbitrary cube-category morphism is assembled one elementary
factor at a time (`cube.peel`); validation (by `_relations`)
and quotients walk only the generator tables, and list no hom-set.
Every cell is an epi acting on a nondegenerate cell (Eilenberg-Zilber), as
`_normal_forms` records; the tensor product lists each of its cells once,
as a permutation orbit of nodes over nondegenerate pairs, and resolves
every triple through the normal forms of its cells.  `quotient` is the one
builder that glues, by a union-find per dimension.

Cells are plain integer indices per dimension; constructors carry
canonical keys so results are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations, product
from operator import itemgetter

from . import cube
from . import lattice as lat
from .config import check_ints, json_errors


class CsetError(ValueError):
    pass


class UnionFind:
    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def classes(self):
        """The partition: sorted classes, each sorted."""
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return sorted(sorted(g) for g in groups.values())


@dataclass(eq=False)
class CubicalSet:
    trunc: int
    sizes: tuple
    faces: dict  # (n, i, eps) -> tuple, eps 0 = lower face, 1 = upper face
    degens: dict  # (n, i) -> tuple, s_i: C_n -> C_{n+1}
    transps: dict  # (n, i) -> tuple, t_i: C_n -> C_n
    keys: tuple = None  # optional per-dimension canonical cell keys
    _action_cache: dict = field(default_factory=dict, repr=False)
    _nondeg_cache: dict = field(default_factory=dict, repr=False)
    _key_index_cache: dict = field(default_factory=dict, repr=False)
    _atom_cache: dict = field(default_factory=dict, repr=False)
    _star_index: list = field(default=None, repr=False)  # vertex -> its closed star
    _presentation: tuple = field(default=None, repr=False)  # t1.fundamental_presentation
    _cylinder: tuple = field(default=None, repr=False)  # cylinder

    @cached_property
    def _tables(self):
        """Per dimension n, (k, the table of C(g)) per elementary g: [1]^k -> [1]^n."""
        maps = (_elementary_maps_into(n, self.trunc) for n in range(self.trunc + 1))
        return [[(g.dom, getattr(self, f)[key]) for f, key, g in level] for level in maps]

    @cached_property
    def _vertices(self):
        """Per dimension n, each n-cell's 2^n vertices in `cube.points(n)` order."""
        corner = lambda p: self.action(cube.CubeMap(0, len(p), tuple(("c", b) for b in p)))
        return [tuple(zip(*map(corner, cube.points(n)))) for n in range(self.trunc + 1)]

    def __post_init__(self):
        self.structural_check()

    # -- structure ---------------------------------------------------------

    def structural_check(self):
        if self.trunc < 0 or len(self.sizes) != self.trunc + 1 or min(self.sizes) < 0:
            raise CsetError("bad truncation data")
        for family, key, g in _generator_tables(self.trunc):
            tbl = getattr(self, family).get(key)
            if tbl is None or len(tbl) != self.sizes[g.cod]:
                raise CsetError(f"missing {family} table {key}")
            if tbl and (min(tbl) < 0 or max(tbl) >= self.sizes[g.dom]):
                raise CsetError(f"{family} table {key} out of range")
        expected = set(_generator_keys(self.trunc).values())
        for family in FAMILIES:
            for key in getattr(self, family):
                if (family, key) not in expected:
                    raise CsetError(f"{family} table {key} outside truncation {self.trunc}")

    def cells(self, n):
        return range(self.sizes[n])

    def all_cells(self):
        for n in range(self.trunc + 1):
            for i in self.cells(n):
                yield (n, i)

    def has_cell(self, cell):
        n, i = cell
        return 0 <= n <= self.trunc and 0 <= i < self.sizes[n]

    def key_index(self, n):
        if n not in self._key_index_cache:
            self._key_index_cache[n] = {k: i for i, k in enumerate(self.keys[n])}
        return self._key_index_cache[n]

    # -- actions -----------------------------------------------------------

    def action(self, phi):
        """The table of C(phi): C_cod -> C_dom for any cube map phi, memoized.
        With g elementary (`cube.peel`), C(g o rest) is C(g) then C(rest)
        and C(rest o g) is C(rest) then C(g)."""
        if phi.cod > self.trunc or phi.dom > self.trunc:
            raise CsetError("action beyond truncation")
        key = (phi.dom, phi.cod, phi.outputs)
        result = self._action_cache.get(key)
        if result is None:
            step = cube.peel(phi)
            if step is None:
                result = tuple(self.cells(phi.dom))
            else:
                g, rest, outer = step
                family, gkey = _generator_keys(self.trunc)[g]
                table, rest_table = getattr(self, family)[gkey], self.action(rest)
                first, then = (table, rest_table) if outer else (rest_table, table)
                result = tuple(map(then.__getitem__, first))
            self._action_cache[key] = result
        return result

    def act(self, phi, x):
        return self.action(phi)[x]

    # -- degeneracy bookkeeping ---------------------------------------------

    def nondegenerate(self, n):
        """Indices of cells of dimension n not in the image of any s_i."""
        cached = self._nondeg_cache.get(n)
        if cached is not None:
            return cached
        if not 0 <= n <= self.trunc:
            raise CsetError(f"no dimension {n} in a cubical set truncated at {self.trunc}")
        if n == 0:
            result = tuple(self.cells(0))
        else:
            degenerate = set()
            for i in range(1, n + 1):
                degenerate.update(self.degens[(n - 1, i)])
            result = tuple(x for x in self.cells(n) if x not in degenerate)
        self._nondeg_cache[n] = result
        return result

    def degeneracy_source(self, n, i):
        """Some (j, x) with s_j(x) == cell i, for a degenerate cell."""
        for j in range(1, n + 1):
            tbl = self.degens[(n - 1, j)]
            for x, v in enumerate(tbl):
                if v == i:
                    return (j, x)
        return None

    def orbits(self, n):
        """Transposition orbits of nondegenerate n-cells (geometric cells)."""
        nondeg = set(self.nondegenerate(n))
        uf = UnionFind(nondeg)
        for i in range(1, n):
            tbl = self.transps[(n, i)]
            for x in nondeg:
                if tbl[x] not in nondeg:
                    raise CsetError("transposition does not preserve nondegeneracy")
                uf.union(x, tbl[x])
        return uf.classes()

    def census(self):
        """Counts of nondegenerate cells up to coordinate transposition."""
        return tuple(len(self.orbits(n)) for n in range(self.trunc + 1))

    def raw_nondegenerate_counts(self):
        return tuple(len(self.nondegenerate(n)) for n in range(self.trunc + 1))

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check the defining relations of the symmetric cube category, which
        generator tables satisfy exactly when they form a presheaf (Grandis
        and Mauri, "Cubical sets and their site", TAC 2003): the cubical face
        and degeneracy relations, the Coxeter relations of the transpositions,
        and transpositions passing faces and degeneracies (`_relations`)."""
        self.structural_check()

        def table(n, word):
            values = self.cells(n)
            for family, key, _ in word:
                values = map(getattr(self, family)[key].__getitem__, values)
            return tuple(values)

        for n, (first, *rest) in _relations(self.trunc):
            want = table(n, first)
            for word in rest:
                if table(n, word) != want:
                    a, b = (" then ".join(f"{f}{k}" for f, k, _ in w) or "identity" for w in (first, word))
                    raise CsetError(f"relation fails on {n}-cells: {a} != {b}")
        return True


FAMILIES = ("faces", "degens", "transps")


@lru_cache(maxsize=None)
def _elementary_maps_into(m, trunc):
    """The generator tables on m-cells, as (family, key, g) triples.

    g: [1]^k -> [1]^m is an elementary map with k, m <= trunc, and
    `getattr(C, family)[key]` is the table of C(g): C_m -> C_k.
    """
    out = [("faces", (m, i, eps), cube.coface(eps, i, m)) for i in range(1, m + 1) for eps in (0, 1)]
    if m < trunc:
        out += [("degens", (m, i), cube.codegeneracy(i, m + 1)) for i in range(1, m + 2)]
    out += [("transps", (m, i), cube.transposition(i, m)) for i in range(1, m)]
    return tuple(out)


@lru_cache(maxsize=None)
def _relations(trunc):
    """(n, words) groups whose words must give one table on n-cells: words
    of at most two generators, the empty word too, grouped by the map they
    denote, then the braids t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1}.  A word
    lists (family, key, g) triples, g1 into [1]^n and each next g into the
    last one's domain; their tables apply in turn.  Sound, as a group holds
    words of one map; complete, as each relation of the presentation but
    the braids equates two such words and rewriting to the normal form that
    `cube.peel` reaches never rises above a word's dimensions (tests check
    it)."""
    groups = {}
    for n in range(trunc + 1):
        groups[cube.identity(n)] = [()]
        for first in _elementary_maps_into(n, trunc):
            groups.setdefault(first[2], []).append((first,))
            for second in _elementary_maps_into(first[2].dom, trunc):
                groups.setdefault(cube.compose(first[2], second[2]), []).append((first, second))
    out = [(phi.cod, tuple(words)) for phi, words in groups.items() if len(words) > 1]
    for n in range(3, trunc + 1):
        t = [("transps", (n, i), cube.transposition(i, n)) for i in range(1, n)]
        out += [(n, ((t[i], t[i + 1], t[i]), (t[i + 1], t[i], t[i + 1]))) for i in range(n - 2)]
    return tuple(out)


def _generator_tables(trunc):
    """Every generator table of a cubical set truncated at trunc."""
    return [t for m in range(trunc + 1) for t in _elementary_maps_into(m, trunc)]


@lru_cache(maxsize=None)
def _generator_keys(trunc):
    """Elementary map -> (family, key) of its table."""
    return {g: (family, key) for family, key, g in _generator_tables(trunc)}


def _tabulate(trunc, sizes, table, **kwargs):
    """The cubical set whose (family, key, g) table is `table(family, key, g)`."""
    tables = {family: {} for family in FAMILIES}
    for family, key, g in _generator_tables(trunc):
        tables[family][key] = table(family, key, g)
    return CubicalSet(trunc, sizes, **tables, **kwargs)


def _normal_forms(C):
    """Per n-cell x, its normal form (m, z, s): z a nondegenerate m-cell and
    s: [1]^n -> [1]^m an epi with C(s)(z) == x.  The first s_i to reach x
    from a cell with normal form (m, z, s) gives (m, z, s o s_i)."""
    normal = []
    for n in range(C.trunc + 1):
        level = [None] * C.sizes[n]
        for i in range(1, n + 1):
            g = cube.codegeneracy(i, n)
            for x, y in enumerate(C.degens[(n - 1, i)]):
                if level[y] is None:
                    m, z, s = normal[n - 1][x]
                    level[y] = (m, z, cube.compose(s, g))
        normal.append([form or (n, x, cube.identity(n)) for x, form in enumerate(level)])
    return normal


# ---------------------------------------------------------------------------
# generic builders: keyed cells


def build_presheaf(trunc, keys_by_dim, positions):
    """Assemble explicit tables for cells keyed by tuples.

    keys_by_dim[n] lists the canonical keys of the n-cells in index order.
    A cube map phi sends key to tuple(key[p] for p in positions(phi)); the
    positions are computed once per generator table and applied to every
    key with `operator.itemgetter`.
    """
    keys = tuple(map(tuple, keys_by_dim))
    index = [{k: i for i, k in enumerate(level)} for level in keys]

    def table(family, key, g):
        pos = positions(g)
        # one position (g.dom == 0): itemgetter returns the bare entry
        image = itemgetter(*pos) if len(pos) > 1 else lambda k, p=pos[0]: (k[p],)
        return tuple(map(index[g.dom].__getitem__, map(image, keys[g.cod])))

    return _tabulate(trunc, tuple(map(len, keys)), table, keys=keys)


def from_lattice(L, trunc):
    """The cubical set of a finite distributive lattice.

    n-cells are the interval-preserving lattice homomorphisms [1]^n -> L,
    stored as value tables over the vertices of [1]^n in lexicographic
    order; the actions are precomposition, which moves a table through
    the vertex table of the cube map (`CubeMap.vertices`).  Cells are
    enumerated as (Boolean interval, surjection onto it) pairs, which is
    exactly the epi-mono factorization of each cell: the surjection
    moves the interval's `lattice.interval_span`.
    """
    if not L.is_distributive:
        raise CsetError("from_lattice requires a distributive lattice")
    intervals = lat.boolean_intervals(L)
    keys_by_dim = [
        sorted({tuple(iv.span[v] for v in e.vertices) for iv in intervals for e in _epis(n, iv.rank)})
        for n in range(trunc + 1)
    ]

    return build_presheaf(trunc, keys_by_dim, lambda phi: phi.vertices)


@lru_cache(maxsize=None)
def representable(n, trunc):
    """The cubical set of the n-cube; k-cells are cube maps [1]^k -> [1]^n."""
    if n < 0:
        raise CsetError(f"cube dimension {n} is negative")
    if trunc < n:
        raise CsetError("truncation below the cube dimension")
    return from_lattice(lat.boolean(n), trunc)


def rep_cell(C, phi):
    """Index of the cell of a representable given by a cube map."""
    found = C.key_index(phi.dom).get(phi.vertices) if phi.dom <= C.trunc else None
    if found is None:
        raise CsetError(f"{phi.text()} is not a cell of this representable")
    return found


# ---------------------------------------------------------------------------
# cubical functions and subpresheaves


@dataclass(eq=False)
class CubicalFunction:
    dom: CubicalSet
    cod: CubicalSet
    maps: tuple

    def __post_init__(self):
        self.maps = tuple(tuple(m) for m in self.maps)
        if len(self.maps) != min(self.dom.trunc, self.cod.trunc) + 1:
            raise CsetError("cubical function has wrong number of levels")

    def __call__(self, cell):
        n, i = cell
        return (n, self.maps[n][i])

    def validate(self):
        levels = range(len(self.maps))
        for n in levels:
            if len(self.maps[n]) != self.dom.sizes[n]:
                raise CsetError(f"level {n} has wrong length")
        cells = [self.dom.cells(n) for n in levels]
        failure = equivariance_failure(self.dom, self.cod, cells, self.maps)
        if failure is not None:
            raise CsetError("{} equivariance fails at table {} cell {}".format(*failure))
        return True

    def compose_after(self, other):
        """self o other."""
        trunc = min(len(self.maps), len(other.maps)) - 1
        return CubicalFunction(
            other.dom,
            self.cod,
            tuple(
                tuple(self.maps[n][v] for v in other.maps[n])
                for n in range(trunc + 1)
            ),
        )

    def is_epi(self):
        return all(
            set(self.maps[n]) == set(self.cod.cells(n)) for n in range(len(self.maps))
        )

    def image_of(self, sub):
        sel = [frozenset(self.maps[n][x] for x in sub.sel[n]) for n in range(len(self.maps))]
        return Subpresheaf(self.cod, tuple(sel))


@dataclass(eq=False)
class Subpresheaf:
    parent: CubicalSet
    sel: tuple  # per-dimension frozensets of cell indices

    def __post_init__(self):
        if len(self.sel) != self.parent.trunc + 1:
            raise CsetError("subpresheaf has wrong number of levels")
        self.sel = tuple(frozenset(s) for s in self.sel)
        for n, s in enumerate(self.sel):
            if s and (min(s) < 0 or max(s) >= self.parent.sizes[n]):
                raise CsetError(f"subpresheaf has a {n}-cell out of range")

    def is_empty(self):
        return all(not s for s in self.sel)

    def contains(self, cell):
        n, i = cell
        return i in self.sel[n]

    def issubset(self, other):
        return all(a <= b for a, b in zip(self.sel, other.sel))

    def check_closed(self):
        for family, key, g in _generator_tables(self.parent.trunc):
            tbl = getattr(self.parent, family)[key]
            if not self.sel[g.dom].issuperset(map(tbl.__getitem__, self.sel[g.cod])):
                raise CsetError(f"subpresheaf not closed under {family} table {key}")
        return True


def equivariance_failure(dom, cod, cells, images):
    """The first (family, key, x) at which `images[n][x]`, the cod index of
    the image of the n-cell x of dom, fails to commute with a generator
    table, over the n-cells x in cells[n]; None if there is none."""
    trunc = min(dom.trunc, cod.trunc, len(cells) - 1)
    for family, key, g in _generator_tables(trunc):
        tbl, cod_tbl = getattr(dom, family)[key], getattr(cod, family)[key]
        src, dst = images[g.cod], images[g.dom]
        for x in cells[g.cod]:
            if cod_tbl[src[x]] != dst[tbl[x]]:
                return family, key, x
    return None


def closure(C, cells):
    """Smallest subpresheaf of C containing the given (dim, index) cells."""
    return Subpresheaf(C, tuple(map(frozenset, _closed_sets(C, cells))))


def _closed_sets(C, cells):
    """The cells of `closure(C, cells)`, one set per dimension."""
    sel = [set() for _ in range(C.trunc + 1)]
    stack = list(cells)
    for n, i in stack:
        if not C.has_cell((n, i)):
            raise CsetError(f"no cell {(n, i)} in this cubical set")
        sel[n].add(i)
    tables = C._tables  # looked up once per set, not per cell
    while stack:
        n, i = stack.pop()
        for m, table in tables[n]:
            x = table[i]
            if x not in sel[m]:
                sel[m].add(x)
                stack.append((m, x))
    return sel


def atom(C, cell):
    """The atomic subpresheaf generated by one cell (also its support)."""
    if cell not in C._atom_cache:
        C._atom_cache[cell] = closure(C, [cell])
    return C._atom_cache[cell]


def vertex_sub(C, v):
    """The minimal subpresheaf with unique vertex v."""
    return atom(C, (0, v))


def closed_star(C, v):
    """Union of the atomic subpresheaves whose vertex set contains v: the
    atoms of nondegenerate cells.  Every vertex's star is built once per
    set, in one pass that closes each nondegenerate cell once and adds its
    cells to the vertices it contains; like `atom`, this returns the shared
    cached object."""
    if not C.has_cell((0, v)):
        raise CsetError(f"no vertex {v} in this cubical set")
    if C._star_index is None:
        stars = [[set() for _ in range(C.trunc + 1)] for _ in C.cells(0)]
        for a in (_closed_sets(C, [(n, i)]) for n in range(C.trunc + 1) for i in C.nondegenerate(n)):
            for w in a[0]:
                for star, cells in zip(stars[w], a):
                    star |= cells
        C._star_index = [Subpresheaf(C, tuple(map(frozenset, star))) for star in stars]
    return C._star_index[v]


def boundary(n, trunc):
    """The boundary of the n-cube inside representable(n, trunc)."""
    C = representable(n, trunc)
    # a cell misses full dimension iff some coordinate is constant across
    # its table, that is iff its first and last vertices share a bit
    full = (1 << n) - 1
    return C, Subpresheaf(
        C, tuple({i for i, key in enumerate(keys) if key[0] ^ key[-1] != full} for keys in C.keys)
    )


def sub_to_cset(S):
    """Promote a subpresheaf to a standalone cubical set with inclusion."""
    C = S.parent
    idx = [sorted(S.sel[n]) for n in range(C.trunc + 1)]
    pos = [{x: k for k, x in enumerate(level)} for level in idx]
    keys = None
    if C.keys is not None:
        keys = tuple(tuple(C.keys[n][x] for x in idx[n]) for n in range(C.trunc + 1))

    def table(family, key, g):
        tbl = getattr(C, family)[key]
        return tuple(pos[g.dom][tbl[x]] for x in idx[g.cod])

    sub = _tabulate(C.trunc, tuple(len(v) for v in idx), table, keys=keys)
    incl = CubicalFunction(sub, C, tuple(tuple(level) for level in idx))
    return sub, incl


def disjoint_union(A, B):
    if A.trunc != B.trunc:
        raise CsetError("truncation mismatch")

    def table(family, key, g):
        offset = A.sizes[g.dom]
        return tuple(getattr(A, family)[key]) + tuple(v + offset for v in getattr(B, family)[key])

    return _tabulate(A.trunc, tuple(a + b for a, b in zip(A.sizes, B.sizes)), table)


# ---------------------------------------------------------------------------
# quotients


def quotient(C, pairs):
    """Coequalize the given same-dimension cell pairs.

    Presheaf colimits are computed level by level, so the congruence is
    generated by the pulled-back pairs (C(phi) a, C(phi) b) over every cube
    map phi into the dimension of a pair, found by a worklist through the
    generator tables and joined by one union-find per dimension.  The
    projection maps each cell to its class, classes ordered by their least
    cell; as the pairs are closed under the generator tables, a table of
    the quotient reads C's table at each least cell through the projection.
    A class is keyed by its least cell's index among C's cells counted
    dimension by dimension.
    """
    pairs = list(pairs)
    for a, b in pairs:
        if not (C.has_cell(a) and C.has_cell(b)):
            raise CsetError(f"{a} or {b} is not a cell of this cubical set")
        if a[0] != b[0]:
            raise CsetError("cannot identify cells of different dimensions")
    ufs = [UnionFind(C.cells(n)) for n in range(C.trunc + 1)]
    queue = [(n, a, b) for (n, a), (_, b) in pairs]
    seen = set(queue)
    for n, a, b in queue:  # reaches the pairs appended below too
        ufs[n].union(a, b)
        pulled = {(m, tbl[a], tbl[b]) for m, tbl in C._tables[n]} - seen
        seen |= pulled
        queue += pulled
    proj, least = [], []
    for uf in ufs:
        number = {}  # root -> class; a root is the least cell of its class, so met first
        proj.append([number.setdefault(uf.find(x), len(number)) for x in uf.parent])
        least.append(list(number))

    def table(family, key, g):
        tbl, image = getattr(C, family)[key], proj[g.dom]
        return tuple(image[tbl[x]] for x in least[g.cod])

    keys = tuple(tuple(sum(C.sizes[:n]) + x for x in cls) for n, cls in enumerate(least))
    Q = _tabulate(C.trunc, tuple(map(len, least)), table, keys=keys)
    return Q, CubicalFunction(C, Q, proj)


# ---------------------------------------------------------------------------
# tensor product (Day convolution)


@lru_cache(maxsize=None)
def _epis(n, k):
    """The epis [1]^n -> [1]^k, projections onto k distinct inputs, in
    lexicographic order; `_epis(n, n)` are the permutations of [1]^n."""
    return tuple(cube.CubeMap(n, k, tuple(map(cube.proj, p))) for p in permutations(range(1, n + 1), k))


def _inverse(s):
    """The inverse of a permutation s of [1]^n: where output j of s reads
    input i, output i of the inverse reads input j."""
    order = sorted(range(s.dom), key=s.outputs.__getitem__)
    return cube.CubeMap(s.dom, s.dom, tuple(cube.proj(j + 1) for j in order))


@lru_cache(maxsize=None)
def _split(p_dim, g, f):
    """Factor g o f: [1]^n -> [1]^p_dim (x) [1]^q as (mu_a (x) mu_b) o e.

    e is the epi that projects onto the inputs used by the first block,
    then onto those used by the second, each in increasing order; mu_a and
    mu_b keep each block's constants and renumber its projections.  No
    cell enters the factorization.
    """
    phi = cube.compose(g, f)
    sides = (phi.outputs[:p_dim], phi.outputs[p_dim:])
    used = [sorted(s[1] for s in side if cube.is_proj(s)) for side in sides]
    mu_a, mu_b = (
        cube.CubeMap(
            len(u),
            len(side),
            tuple(s if cube.is_const(s) else cube.proj(u.index(s[1]) + 1) for s in side),
        )
        for side, u in zip(sides, used)
    )
    e = cube.CubeMap(phi.dom, len(used[0] + used[1]), tuple(map(cube.proj, used[0] + used[1])))
    return mu_a, mu_b, e


def _tensor_node(normal, a, b, e):
    """The node ((m, z_a), (k, z_b), (s_a (x) s_b) o e) of the triple (a, b, e),
    e an epi, where normal = (normal forms of the left factor, of the right)
    gives a its normal form (m, z_a, s_a) and b its normal form (k, z_b, s_b)."""
    (m, za, sa), (k, zb, sb) = normal[0][a[0]][a[1]], normal[1][b[0]][b[1]]
    if (m, k) != (a[0], b[0]):  # s_a and s_b are identities on nondegenerate cells
        e = cube.compose(cube.tensor(sa, sb), e)
    return (m, za), (k, zb), e


@dataclass(eq=False)
class TensorSet:
    cset: CubicalSet
    left: CubicalSet
    right: CubicalSet
    _node_index: dict  # node over nondegenerate cells -> class index
    _normal: tuple  # normal forms of the left and of the right factor

    def pair_class(self, a, b):
        """The cell class of a (x) b for a in the left, b in the right factor,
        either cell degenerate or not: the class of the node of (a, b, id)."""
        n = a[0] + b[0]
        if not (self.left.has_cell(a) and self.right.has_cell(b) and n <= self.cset.trunc):
            raise CsetError(f"not a pair of cells within the truncation: {a}, {b}")
        return (n, self._node_index[_tensor_node(self._normal, a, b, cube.identity(n))])


def tensor(A, B):
    """Day-convolution tensor product, truncated at min(A.trunc, B.trunc).

    Cells are classes of triples (a, b, e) with e an epi.  Every cell of a
    factor is an epi acting on a nondegenerate cell (Eilenberg-Zilber), so
    every triple resolves through its normal form (`_tensor_node`) to a node
    ((p, z_a), (q, z_b), e) over nondegenerate cells, and two nodes name one
    cell exactly when permutations s of [1]^p and t of [1]^q move one to the
    other, (z_a, z_b, e) to (A(s) z_a, B(t) z_b, (s^-1 (x) t^-1) o e)
    (Berger and Moerdijk, "On an extension of the notion of Reedy
    category", 2011).  The nodes are walked in sorted order, and each one
    that no earlier orbit holds is the least of its orbit: it is listed as
    the next cell of its dimension, keyed by its position in the walk, and
    its whole orbit joins that cell.  A listed node's tables resolve its
    image under each generator.
    """
    trunc = min(A.trunc, B.trunc)
    normal = (_normal_forms(A), _normal_forms(B))
    nodes = sorted(
        ((p, ia), (q, ib), e)
        for n in range(trunc + 1)
        for p in range(min(A.trunc, n) + 1)
        for q in range(min(B.trunc, n - p) + 1)
        for e in _epis(n, p + q)
        for ia in A.nondegenerate(p)
        for ib in B.nondegenerate(q)
    )

    @lru_cache(maxsize=None)
    def symmetries(p, q):
        # per pair of permutations s of [1]^p and t of [1]^q: the tables of
        # A(s) and B(t), and s^-1 (x) t^-1
        return [
            (A.action(s), B.action(t), cube.tensor(_inverse(s), _inverse(t)))
            for s, t in product(_epis(p, p), _epis(q, q))
        ]

    index, keys = {}, [[] for _ in range(trunc + 1)]
    for x, node in enumerate(nodes):
        if node not in index:
            (p, za), (q, zb), e = node
            level = keys[e.dom]
            for moved_a, moved_b, inv in symmetries(p, q):
                index[(p, moved_a[za]), (q, moved_b[zb]), cube.compose(inv, e)] = len(level)
            level.append(x)

    def resolve(a, b, g, f):
        # the cell of (a, b, g o f): the actions of mu_a and mu_b move the
        # cells, and the epi e is left over
        mu_a, mu_b, e = _split(a[0], g, f)
        a, b = (mu_a.dom, A.action(mu_a)[a[1]]), (mu_b.dom, B.action(mu_b)[b[1]])
        return index[_tensor_node(normal, a, b, e)]

    def table(family, key, g):
        return tuple(resolve(a, b, e, g) for a, b, e in map(nodes.__getitem__, keys[g.cod]))

    T = _tabulate(trunc, tuple(map(len, keys)), table, keys=tuple(map(tuple, keys)))
    return TensorSet(T, A, B, index, normal)


def cylinder(B):
    """B (x) [1] with the two end inclusions, built once per B."""
    if B._cylinder is not None:
        return B._cylinder
    interval = representable(1, max(B.trunc, 1))
    ts = tensor(B, interval)
    levels = range(ts.cset.trunc + 1)

    def incl(const):
        end = rep_cell(interval, cube.CubeMap(0, 1, (const,)))
        maps = [[ts.pair_class((n, i), (0, end))[1] for i in B.cells(n)] for n in levels]
        return CubicalFunction(B, ts.cset, maps)

    B._cylinder = (ts.cset, incl(cube.CONST0), incl(cube.CONST1))
    return B._cylinder


# ---------------------------------------------------------------------------
# serialization


def to_json(C):
    data = {
        "trunc": C.trunc,
        "cells": list(C.sizes),
        "faces": {f"{n},{i},{eps}": list(tbl) for (n, i, eps), tbl in sorted(C.faces.items())},
        "degens": {f"{n},{i}": list(tbl) for (n, i), tbl in sorted(C.degens.items())},
        "transps": {f"{n},{i}": list(tbl) for (n, i), tbl in sorted(C.transps.items())},
    }
    return json.dumps(data, sort_keys=True)


def from_json(text):
    """Inverse of `to_json`; missing or malformed entries raise CsetError."""
    with json_errors(CsetError, "cubical set"):
        data = json.loads(text)
        trunc, sizes = data["trunc"], tuple(data["cells"])
        tables = []
        for name, arity in (("faces", 3), ("degens", 2), ("transps", 2)):
            table = {}
            for key, tbl in data[name].items():
                index = tuple(int(v) for v in key.split(","))
                if len(index) != arity:
                    raise ValueError(f"bad {name} key {key!r}")
                table[index] = tuple(tbl)
            tables.append(table)
        check_ints([trunc, *sizes, *(v for table in tables for tbl in table.values() for v in tbl)])
    return CubicalSet(trunc, sizes, *tables)


def dot_skeleton(C, name="cset"):
    """DOT digraph of the 1-skeleton; edges oriented lower face -> upper face."""
    lines = [f"digraph {name} {{"]
    for v in C.cells(0):
        lines.append(f"  v{v};")
    for e in C.nondegenerate(1) if C.trunc else ():
        src = C.faces[(1, 1, 0)][e]
        tgt = C.faces[(1, 1, 1)][e]
        lines.append(f"  v{src} -> v{tgt} [label=\"e{e}\"];")
    lines.append("}")
    return "\n".join(lines)
