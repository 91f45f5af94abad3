"""Finite categories and monoids by table, nerves, conjugacy, and homotopy
classes of functors under zig-zags of natural transformations.

One depth-first search (`_search`) finds every functor out of a finite
presentation: it reads objects off generator values, takes the open
generator with the fewest candidates next, solves a relation's last open
letter by division and charges every value it tries; one set-up
(`_prepare`) serves many runs.  `enumerate_functors` lists what it finds
by object map, then generator map; the n-cells of the nerve N(S) are its
functors t1(cube n) -> S.  A natural transformation F -> G is a functor
out of `cylinder_presentation`, P x [1], its ends fixed to F and G; a
functor S -> T is a functor out of `presentation_of(S)`.
`functor_homotopy_classes` is the one entry to the classes of functors
under zig-zags of transformations, which `invariants.h1` and
`invariants.hom_classes` report: it gauge fixes a group target
(`gauge_classes`) and enumerates any other, then walks the unjoined pairs.

Composition is read diagrammatically throughout: `comp[f][g]` is "f, then
g", and a monoid table `op[x][y]` means "x, then y".  Path words in
presentations are read left to right in the same way.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import cset, t1
from .config import Budget, check_ints, find_bijection, json_errors


class CatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# monoids


@dataclass(frozen=True)
class FinMonoid:
    table: tuple
    unit: int

    @property
    def size(self):
        return len(self.table)

    def op(self, x, y):
        """x, then y."""
        return self.table[x][y]

    def validate(self):
        n = self.size
        if any(len(row) != n for row in self.table):
            raise CatError("ragged monoid table")
        if any(not 0 <= v < n for row in self.table for v in row):
            raise CatError("monoid table value out of range")
        if not 0 <= self.unit < n:
            raise CatError("monoid unit out of range")
        e = self.unit
        for x in range(n):
            if self.table[e][x] != x or self.table[x][e] != x:
                raise CatError(f"unit law fails at {x}")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if self.table[self.table[x][y]][z] != self.table[x][self.table[y][z]]:
                        raise CatError(f"associativity fails at {x},{y},{z}")
        return True

    def is_commutative(self):
        return all(
            self.table[x][y] == self.table[y][x]
            for x in range(self.size)
            for y in range(self.size)
        )

    def is_group(self):
        return all(
            any(
                self.table[x][y] == self.unit and self.table[y][x] == self.unit
                for y in range(self.size)
            )
            for x in range(self.size)
        )


def monoid_from_op(elements, op, unit):
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(
        tuple(index[op(a, b)] for b in elements) for a in elements
    )
    M = FinMonoid(table, index[unit])
    M.validate()
    return M


@lru_cache(maxsize=None)
def zmod(k):
    if k < 1:
        raise CatError(f"zmod needs an order k >= 1, got {k!r}")
    return monoid_from_op(range(k), lambda a, b: (a + b) % k, 0)


@lru_cache(maxsize=None)
def sym3():
    """The symmetric group on three letters, elements as permutation tuples."""
    elems = sorted(itertools.permutations(range(3)))
    # x then y = apply x first
    return monoid_from_op(elems, lambda x, y: tuple(y[x[i]] for i in range(3)), (0, 1, 2))


@lru_cache(maxsize=None)
def idempotent2():
    """{1, a} with a*a = a: the smallest non-cancellative monoid."""
    return FinMonoid(((0, 1), (1, 1)), 0)


@lru_cache(maxsize=None)
def capped_add():
    """{0, 1, oo} under addition capped at the absorbing top."""
    return monoid_from_op(range(3), lambda a, b: min(a + b, 2), 0)


@lru_cache(maxsize=None)
def trivial_monoid():
    return FinMonoid(((0,),), 0)


def product_monoid(A, B):
    elems = [(a, b) for a in range(A.size) for b in range(B.size)]
    return monoid_from_op(
        elems, lambda x, y: (A.table[x[0]][y[0]], B.table[x[1]][y[1]]), (A.unit, B.unit)
    )


def submonoid(M, elements):
    elements = sorted(set(elements))
    for e in elements:
        if not 0 <= e < M.size:
            raise CatError(f"submonoid element {e} is not an element of the monoid")
    if M.unit not in elements:
        raise CatError("submonoid must contain the unit")
    index = {e: i for i, e in enumerate(elements)}
    for a in elements:
        for b in elements:
            if M.table[a][b] not in index:
                raise CatError("subset not closed under the operation")
    table = tuple(tuple(index[M.table[a][b]] for b in elements) for a in elements)
    return FinMonoid(table, index[M.unit])


def equal_doubles_pairs(M):
    """The submonoid of M x M of pairs (a, b) with a+a = b+b."""
    P = product_monoid(M, M)
    elems = [
        i
        for i, (a, b) in enumerate(
            (a, b) for a in range(M.size) for b in range(M.size)
        )
        if M.table[a][a] == M.table[b][b]
    ]
    return submonoid(P, elems)


def monoid_by_name(name):
    if name.startswith("zmod"):
        if not name[4:].isdecimal() or int(name[4:]) < 1:
            raise CatError(f"zmod needs an order k >= 1, got {name!r}")
        return zmod(int(name[4:]))
    builders = {
        "trivial": trivial_monoid,
        "s3": sym3,
        "idem2": idempotent2,
        "capped": capped_add,
    }
    if name not in builders:
        raise CatError(f"unknown monoid {name!r}")
    return builders[name]()


def monoid_to_json(M):
    return json.dumps(
        {"size": M.size, "unit": M.unit, "table": [list(r) for r in M.table]},
        sort_keys=True,
    )


def monoid_from_json(text):
    """Inverse of `monoid_to_json`; missing or malformed entries raise CatError."""
    with json_errors(CatError, "monoid"):
        data = json.loads(text)
        table = tuple(tuple(r) for r in data["table"])
        unit, size = data["unit"], data["size"]
        check_ints([unit, size, *itertools.chain(*table)])
    M = FinMonoid(table, unit)
    if M.size != size:
        raise CatError("size field does not match table")
    M.validate()
    return M


def is_cancellative(M):
    """Exhaustive left- and right-cancellation check."""
    n = M.size
    for x in range(n):
        row = M.table[x]
        if len(set(row)) != n:
            return False
        col = [M.table[y][x] for y in range(n)]
        if len(set(col)) != n:
            return False
    return True


def conjugacy_classes(M):
    """Partition by the closure of x ~ y when x z = z y for some z.

    For commutative M the classes inherit the operation; the quotient
    monoid is returned alongside the partition (None otherwise).  A
    failure of well-definedness is reported, never patched.
    """
    uf = cset.UnionFind(range(M.size))
    for x in range(M.size):
        for y in range(M.size):
            if any(M.table[x][z] == M.table[z][y] for z in range(M.size)):
                uf.union(x, y)
    groups = uf.classes()
    quotient = None
    if M.is_commutative():
        class_of = {x: ci for ci, grp in enumerate(groups) for x in grp}
        table = []
        for g1 in groups:
            row = []
            for g2 in groups:
                results = {class_of[M.table[a][b]] for a in g1 for b in g2}
                if len(results) != 1:
                    raise CatError("internal: conjugacy quotient not well defined")
                row.append(results.pop())
            table.append(tuple(row))
        quotient = FinMonoid(tuple(table), class_of[M.unit])
        quotient.validate()
    return groups, quotient


def monoid_isomorphic(A, B):
    """An isomorphism A -> B as an index tuple, or None (backtracking)."""

    def profile(M):
        out = []
        for x in range(M.size):
            # element order data: iterate the element against itself
            seen, y = {x}, M.table[x][x]
            while y not in seen:
                seen.add(y)
                y = M.table[y][x]
            out.append((len(seen), M.table[x].count(x), x == M.unit))
        return out

    def consistent(x, y, assign):
        # each product p q = r is checked once p, q and r are all placed
        assign = {**assign, x: y}
        return all(
            assign[r] == B.table[assign[p]][assign[q]]
            for p in assign
            for q in assign
            if (r := A.table[p][q]) in assign and x in (p, q, r)
        )

    return find_bijection(profile(A), profile(B), consistent)


# ---------------------------------------------------------------------------
# finite categories


@dataclass(frozen=True)
class FinCat:
    n_obj: int
    src: tuple
    tgt: tuple
    ident: tuple  # identity morphism per object
    comp: tuple  # comp[f][g] = "f then g" when tgt f == src g, else None

    @property
    def n_mor(self):
        return len(self.src)

    @cached_property
    def homs(self):
        """The morphisms x -> y, in index order, by (x, y); None for x or y
        stands for any object, and the key None gives the endomorphisms."""
        homs = {}
        for f, x, y in zip(range(self.n_mor), self.src, self.tgt):
            for key in ((x, y), (x, None), (None, y), (None, None)) + ((None,) if x == y else ()):
                homs.setdefault(key, []).append(f)
        return homs

    @cached_property
    def divisions(self):  # the functor search's cache: (L, R, Y) -> the f with L;f;R = Y
        return {}

    def validate(self):
        n, m = self.n_obj, self.n_mor
        if len(self.tgt) != m or len(self.ident) != n or len(self.comp) != m:
            raise CatError("category tables have inconsistent sizes")
        if any(len(row) != m for row in self.comp):
            raise CatError("ragged composition table")
        if (
            any(not 0 <= o < n for o in self.src + self.tgt)
            or any(not 0 <= f < m for f in self.ident)
            or any(h is not None and not 0 <= h < m for row in self.comp for h in row)
        ):
            raise CatError("category table entry out of range")
        for o in range(self.n_obj):
            e = self.ident[o]
            if self.src[e] != o or self.tgt[e] != o:
                raise CatError(f"identity of {o} has wrong endpoints")
        for f in range(self.n_mor):
            for g in range(self.n_mor):
                h = self.comp[f][g]
                if (self.tgt[f] == self.src[g]) != (h is not None):
                    raise CatError(f"composability mismatch at {f},{g}")
                if h is not None and (
                    self.src[h] != self.src[f] or self.tgt[h] != self.tgt[g]
                ):
                    raise CatError(f"composite endpoints wrong at {f},{g}")
        for f in range(self.n_mor):
            if self.comp[self.ident[self.src[f]]][f] != f:
                raise CatError(f"left unit fails at {f}")
            if self.comp[f][self.ident[self.tgt[f]]] != f:
                raise CatError(f"right unit fails at {f}")
        for f in range(self.n_mor):
            for g in range(self.n_mor):
                if self.tgt[f] != self.src[g]:
                    continue
                for h in range(self.n_mor):
                    if self.tgt[g] != self.src[h]:
                        continue
                    if self.comp[self.comp[f][g]][h] != self.comp[f][self.comp[g][h]]:
                        raise CatError(f"associativity fails at {f},{g},{h}")
        return True


@lru_cache(maxsize=None)
def cat_from_monoid(M):
    n = M.size
    comp = tuple(tuple(M.table[f][g] for g in range(n)) for f in range(n))
    C = FinCat(1, (0,) * n, (0,) * n, (M.unit,), comp)
    C.validate()
    return C


def discrete_cat(n):
    if n < 0:
        raise CatError(f"discrete_cat needs a size n >= 0, got {n!r}")
    comp = tuple(
        tuple(f if f == g else None for g in range(n)) for f in range(n)
    )
    C = FinCat(n, tuple(range(n)), tuple(range(n)), tuple(range(n)), comp)
    C.validate()
    return C


def poset_cat(leq):
    """The category of a finite poset given by its order table."""
    n = len(leq)
    mors = [(x, y) for x in range(n) for y in range(n) if leq[x][y]]
    index = {m: i for i, m in enumerate(mors)}
    comp = []
    for (x1, y1) in mors:
        row = []
        for (x2, y2) in mors:
            row.append(index[(x1, y2)] if y1 == x2 else None)
        comp.append(tuple(row))
    C = FinCat(
        n,
        tuple(m[0] for m in mors),
        tuple(m[1] for m in mors),
        tuple(index[(x, x)] for x in range(n)),
        tuple(comp),
    )
    C.validate()
    return C


def terminal_cat():
    return discrete_cat(1)


def arrow_cat():
    """The poset [1] as a category."""
    return poset_cat(((True, True), (False, True)))


def as_cat(S):
    return cat_from_monoid(S) if isinstance(S, FinMonoid) else S


def as_monoid(S):
    """S read as a monoid: S itself, the monoid of the morphisms of a
    one-object category, else None."""
    if isinstance(S, FinMonoid):
        return S
    return FinMonoid(S.comp, S.ident[0]) if S.n_obj == 1 else None


def cat_to_json(S):
    S = as_cat(S)
    return json.dumps(
        {
            "objects": S.n_obj,
            "src": list(S.src),
            "tgt": list(S.tgt),
            "identities": list(S.ident),
            "compose": [list(row) for row in S.comp],
        },
        sort_keys=True,
    )


def cat_from_json(text):
    """Inverse of `cat_to_json`; missing or malformed entries raise CatError."""
    with json_errors(CatError, "category"):
        data = json.loads(text)
        C = FinCat(
            data["objects"],
            tuple(data["src"]),
            tuple(data["tgt"]),
            tuple(data["identities"]),
            tuple(tuple(row) for row in data["compose"]),
        )
        check_ints([C.n_obj, *C.src, *C.tgt, *C.ident])
        check_ints(itertools.chain(*C.comp), blank=True)
    C.validate()
    return C


# ---------------------------------------------------------------------------
# cubical nerves


@lru_cache(maxsize=None)
def _cube_pairs(n):
    """Comparable vertex pairs (a, b) of the n-cube poset, as `cube.points`
    indices, in lexicographic order, mapped to their index."""
    pairs = [(a, b) for a in range(1 << n) for b in range(1 << n) if a & b == a]
    return {p: i for i, p in enumerate(pairs)}


@lru_cache(maxsize=None)
def _cube_t1(n):
    """t1 of the n-cube, a step per comparable vertex pair (a, b) and the
    comparable triples as pair indices.  The step is (None, a) when a == b,
    else (i, g): pair i is (a, b') for the last stair b' before b on the
    staircase from a (coordinates raised in increasing order), so it comes
    earlier in lexicographic order, and g is the edge generator b' -> b."""
    P, _ = t1.fundamental_presentation(cset.representable(n, max(n, 2)))
    gen_of = {edge: g for g, edge in enumerate(P.gens)}
    pairs = _cube_pairs(n)
    steps = []
    for a, b_ in pairs:
        raised = a ^ b_
        last = b_ ^ (raised & -raised)  # the lowest coordinate is raised last
        steps.append((pairs[a, last], gen_of[last, b_]) if raised else (None, a))
    triples = tuple(
        (i, pairs[(b_, c)], pairs[(a, c)])
        for (a, b_), i in pairs.items()
        for c in range(1 << n)
        if (b_, c) in pairs
    )
    return P, tuple(steps), triples


def cube_functors(S, n, budget=None):
    """All functors from the n-cube poset to S, as morphism tables over
    the comparable vertex pairs.

    The n-cube poset is t1 of the representable n-cube, so these are the
    functors `enumerate_functors` finds out of its presentation.  A table
    is filled pair by pair along the steps of `_cube_t1`, one `S.comp`
    lookup each.  Functoriality on every comparable triple is checked again
    off `S.comp` rows, independently of t1's square convention.
    """
    S = as_cat(S)
    P, steps, triples = _cube_t1(n)
    comp, ident = S.comp, S.ident
    tables = []
    for F in enumerate_functors(P, S, budget):
        obj, gen = F.obj_map, F.gen_map
        table = []
        for i, g in steps:
            table.append(ident[obj[g]] if i is None else comp[table[i]][gen[g]])
        for ab, bc, ac in triples:
            if comp[table[ab]][table[bc]] != table[ac]:
                raise CatError(f"internal: {n}-cube functor fails on a comparable triple")
        tables.append(tuple(table))
    return sorted(tables)


# The highest nerve truncation: t1 of the n-cube is read off a
# representable (`_cube_t1`), which is built without a charge to the budget.
ENUMERATION_BOUND = 4


def nerve(S, trunc, budget=None):
    """The cubical nerve of S: its n-cells are the functors out of t1 of the
    n-cube (`cube_functors`), and cube maps act by precomposition.  A
    truncation outside 0..`ENUMERATION_BOUND` is refused before enumerating."""
    if trunc < 0:
        raise CatError(f"nerve truncation {trunc} is negative")
    if trunc > ENUMERATION_BOUND:
        raise CatError(f"nerve truncation {trunc} exceeds the enumeration bound {ENUMERATION_BOUND}")
    S = as_cat(S)
    b = Budget.of(budget)
    keys_by_dim = [cube_functors(S, n, b) for n in range(trunc + 1)]

    def positions(phi):
        pidx, v = _cube_pairs(phi.cod), phi.vertices
        return tuple(pidx[v[a], v[b_]] for a, b_ in _cube_pairs(phi.dom))

    return cset.build_presheaf(trunc, keys_by_dim, positions)


def nerve_map(F_obj, F_mor, S, T, nerve_S, nerve_T):
    """The cubical function of nerves induced by the functor S -> T with
    object and morphism tables F_obj, F_mor; a non-functor raises CatError."""
    S, T = as_cat(S), as_cat(T)
    F = Functor(tuple(F_obj), tuple(F_mor))  # fully fixed: nothing is charged
    if not _search(presentation_of(S), T, Budget(1), F, lambda _: True):
        raise CatError("the tables are not a functor between the two categories")
    maps = []
    for n in range(min(nerve_S.trunc, nerve_T.trunc) + 1):
        idx = nerve_T.key_index(n)
        level = []
        for key in nerve_S.keys[n]:
            cell = idx.get(tuple(F_mor[f] for f in key))
            if cell is None:
                raise CatError("the nerves are not those of the two categories")
            level.append(cell)
        maps.append(tuple(level))
    f = cset.CubicalFunction(nerve_S, nerve_T, tuple(maps))
    f.validate()
    return f


# ---------------------------------------------------------------------------
# presentations, functors out of them, homotopy classes


@dataclass(frozen=True)
class CatPresentation:
    n_obj: int
    gens: tuple  # (src, tgt) per generator
    relations: tuple  # pairs of generator-index words, read left to right

    def validate(self):
        for s, t in self.gens:
            if not (0 <= s < self.n_obj and 0 <= t < self.n_obj):
                raise CatError("generator endpoint out of range")
        for w1, w2 in self.relations:
            e1, e2 = self._endpoints(w1), self._endpoints(w2)
            # an empty word is an identity, so the other side must be a loop
            if e1 is not None and e2 is not None and e1 != e2:
                raise CatError(f"relation words have different endpoints: {w1} vs {w2}")
            for e in (e1, e2):
                if e is not None and (e1 is None or e2 is None) and e[0] != e[1]:
                    raise CatError(f"identity relation against a non-loop: {w1} vs {w2}")
        return True

    def _endpoints(self, word):
        if not word:
            return None  # empty word: an identity at any object
        for a, b in zip(word, word[1:]):
            if self.gens[a][1] != self.gens[b][0]:
                raise CatError(f"word {word} is not composable")
        return (self.gens[word[0]][0], self.gens[word[-1]][1])


@dataclass(frozen=True)
class Functor:
    """Object and generator tables; a partial functor has None where free."""

    obj_map: tuple
    gen_map: tuple


def presentation_of(S):
    """S presented by all its morphisms: one relation f, g = h per
    composable pair with composite h, and e = () per identity e."""
    S = as_cat(S)
    composites = tuple(
        ((f, g), (h,)) for f, row in enumerate(S.comp) for g, h in enumerate(row) if h is not None
    )
    identities = tuple(((e,), ()) for e in S.ident)
    return CatPresentation(S.n_obj, tuple(zip(S.src, S.tgt)), composites + identities)


@lru_cache(maxsize=None)
def cylinder_presentation(P):
    """P x [1]: object x at end e is x + e*|objects|; the generators of
    end 0, then of end 1, then one rung x -> x + |objects| per object.
    P's relations hold at both ends, and each generator g: s -> t closes
    the naturality square (g, rung t) = (rung s, g at end 1)."""
    n, m = P.n_obj, len(P.gens)
    shift = lambda word: tuple(g + m for g in word)
    gens = P.gens + tuple((s + n, t + n) for s, t in P.gens) + tuple((x, x + n) for x in range(n))
    squares = tuple(((g, 2 * m + t), (2 * m + s, g + m)) for g, (s, t) in enumerate(P.gens))
    ends = P.relations + tuple((shift(w1), shift(w2)) for w1, w2 in P.relations)
    return CatPresentation(2 * n, gens, ends + squares)


@lru_cache(maxsize=None)
def _layout(P):
    """Per relation with a letter: source, words, letters; per generator the
    relations it occurs in and, per one it occurs in once, the relation, its
    source, the words left and right of it and the other side; per object
    its generators."""
    P.validate()
    rels, rels_of, at = [], [[] for _ in P.gens], [[] for _ in range(P.n_obj)]
    solvers = [[] for _ in P.gens]
    for g, (s, t) in enumerate(P.gens):
        at[s].append(g)
        at[t].append(g)
    for w1, w2 in P.relations:
        word, r = w1 + w2, len(rels)
        for g in set(word):
            rels_of[g].append(r)
            if word.count(g) == 1:
                k, w, o = (w1.index(g), w1, w2) if g in w1 else (w2.index(g), w2, w1)
                solvers[g].append((r, P.gens[word[0]][0], w[:k], w[k + 1 :], o))
        if word:
            rels.append((P.gens[word[0]][0], w1, w2, set(word)))
    return rels, rels_of, solvers, at


def _prepare(P, S, pattern):
    """The set-up of `_search` for the entries `pattern` fixes (not None):
    what depends only on P, S and which entries are fixed.  It returns
    run(fixed, budget, found), the search for one `fixed` of that pattern."""
    rels, rels_of, solvers, at = _layout(P)
    if len(pattern.obj_map) != P.n_obj or len(pattern.gen_map) != len(P.gens):
        raise CatError("partial functor does not match the presentation")
    src, tgt, ident, comp, homs, divs = S.src, S.tgt, S.ident, S.comp, S.homs, S.divisions
    objects, n_mor, m = {None, *range(S.n_obj)}, S.n_mor, len(P.gens)
    none = n_mor + 1  # more than any generator's candidates
    set_gens, open_gens, start_open = [], [], [len(r[3]) for r in rels]
    for g, f in enumerate(pattern.gen_map):
        if f is None:
            open_gens.append(g)
            continue
        set_gens.append((g, *P.gens[g]))
        for r in rels_of[g]:
            start_open[r] -= 1
    closed_at_start = [r for r, k in enumerate(start_open) if not k]
    loops = [(v, v) for v, x in enumerate(pattern.obj_map) if x is None and not at[v]]
    gens, in_no_relation, free_loops = P.gens + tuple(loops), [()] * len(loops), [None] * len(loops)
    rels_of, solvers = rels_of + in_no_relation, solvers + in_no_relation
    # the loops rank last: no generator has more candidates than all morphisms
    start_cand, start_size = [None] * m + [ident] * len(loops), [none] * m + [none - 1] * len(loops)

    def run(fixed, budget, found):
        obj, gen = list(fixed.obj_map), [*fixed.gen_map, *free_loops]
        if not objects.issuperset(obj):
            return False
        for g, s, t in set_gens:
            f = gen[g]
            if not 0 <= f < n_mor:
                return False
            if obj[s] is None:
                obj[s] = src[f]
            elif obj[s] != src[f]:
                return False
            if obj[t] is None:
                obj[t] = tgt[f]
            elif obj[t] != tgt[f]:
                return False
        n_open, cand, size, trail = start_open.copy(), start_cand.copy(), start_size.copy(), []

        def value(word, f):
            for x in word:
                f = comp[f][gen[x]]
            return f

        def holds(r):
            v, w1, w2, _ = rels[r]
            f1 = f2 = ident[obj[v]]
            for x in w1:
                f1 = comp[f1][gen[x]]
            for x in w2:
                f2 = comp[f2][gen[x]]
            return f1 == f2

        def refresh(h):  # the open generator h's candidates; the old ones go on the trail
            s, t = gens[h]
            os, ot = obj[s], obj[t]
            c = hom = homs.get((os, ot) if s != t or os is not None else None, ())
            for r, v, left, right, other in solvers[h] if os is not None and ot is not None else ():
                if n_open[r] == 1:
                    e = ident[obj[v]]
                    key = (value(left, e), value(right, ident[ot]), value(other, e))
                    if key not in divs:
                        L, R, Y = key
                        divs[key] = [f for f in homs.get((tgt[L], src[R]), ()) if comp[comp[L][f]][R] == Y]
                    c = divs[key] if c is hom else [f for f in divs[key] if f in c]
            trail.append((h, cand[h], size[h]))
            cand[h], size[h] = c, len(c)

        def step():
            least = min(size, default=none)
            if least == none:
                return found(Functor(tuple(obj), tuple(gen[:m])))
            g = size.index(least)
            (s, t), options, mark = gens[g], cand[g], len(trail)
            fresh = [v for v in (s, t) if obj[v] is None] if None in (obj[s], obj[t]) else ()
            size[g], near, closed = none, set(), []
            for v in fresh:
                near.update(at[v])
            for r in rels_of[g]:
                n_open[r] -= 1
                if n_open[r] == 1:
                    near.update(rels[r][3])
                elif not n_open[r]:
                    closed.append(r)
            for f in options:
                budget.spend()
                gen[g] = f
                if fresh:
                    obj[s], obj[t] = src[f], tgt[f]
                if all(map(holds, closed)):
                    for h in near:  # the open generators whose candidates change with g
                        if gen[h] is None:
                            refresh(h)
                    if step():
                        return True
                    while len(trail) > mark:
                        h, cand[h], size[h] = trail.pop()
            for r in rels_of[g]:
                n_open[r] += 1
            for v in fresh:
                obj[v] = None
            gen[g], size[g] = None, least
            return False

        if not all(map(holds, closed_at_start)):
            return False
        for h in open_gens:
            refresh(h)
        accepted = step()
        del step  # it refers to itself: free it without the cycle collector
        return accepted

    return run


def _search(P, S, budget, fixed, found):
    """Depth-first search over the functors P -> S that agree with the
    partial functor `fixed` (None where free), applied first and uncharged
    (a caller with many searches of one pattern calls `_prepare` once).

    Objects are read off the generator values at them; an object that no
    generator touches is tried as an identity loop at it, after every
    generator.  The open generator with the fewest candidates goes next,
    the lowest index on ties.  A relation whose only open letter occurs in
    it once forces that letter to the f with L;f;R = Y (cached in
    `S.divisions`); other candidates are the hom-set, the morphisms at the
    one known end, or all.  A relation is checked once all its letters are
    set; each value tried on a free entry is charged, forced ones too.
    Functors go to `found` in search order (sorted by object map, then
    generator map, they are in the order of a search by index); the search
    stops, returning True, at the first one accepted.
    """
    return _prepare(P, S, fixed)(fixed, budget, found)


def enumerate_functors(P, S, budget=None, fixed=None):
    """All functors from the presented category to S that agree with the
    partial functor `fixed` (all free by default), sorted by object map,
    then generator map; only the values tried on free entries are charged
    to the budget."""
    results = []
    fixed = fixed or Functor((None,) * P.n_obj, (None,) * len(P.gens))
    _search(P, as_cat(S), Budget.of(budget), fixed, results.append)
    return sorted(results, key=lambda F: (F.obj_map, F.gen_map))


def nat_trans_exists(P, S, F, G, budget=None):
    """Whether a natural transformation F -> G exists: a functor out of
    `cylinder_presentation(P)` with its ends fixed to F and G, the rungs
    being the components."""
    fixed = Functor(F.obj_map + G.obj_map, F.gen_map + G.gen_map + (None,) * P.n_obj)
    return _search(cylinder_presentation(P), as_cat(S), Budget.of(budget), fixed, lambda _: True)


def functor_homotopy_classes(P, S, budget=None):
    """Homotopy classes of the functors P -> S under zig-zags of natural
    transformations, as (classes, class_of, functor_count): the members of
    each class from the one enumeration lists first, in that order; the
    class index of a functor (None for a non-functor); the functor count.

    A group (`as_monoid(S)` with every element invertible) goes to
    `gauge_classes`, which lists only each class's first member.  Any
    other target is enumerated, and the search of `nat_trans_exists`, less
    the relations of the cylinder's ends, is prepared once.  Pairs i < j go
    in lexicographic order, each charged one and searched both ways while
    i and j lie in different classes: row i walks the members of the other
    classes, and the walk stops at one class.
    """
    b, M = Budget.of(budget), as_monoid(S)
    if M is not None and M.is_group():
        reps, class_of, count = gauge_classes(P, M, b)
        return [[F] for F in reps], class_of, count
    S = as_cat(S)
    functors = enumerate_functors(P, S, b)
    Q, rungs = cylinder_presentation(P), (None,) * P.n_obj
    # the cylinder's relations are those of its two ends, then the squares
    squares = CatPresentation(Q.n_obj, Q.gens, Q.relations[2 * len(P.relations) :])
    search = _prepare(squares, S, Functor((0,) * Q.n_obj, (0,) * 2 * len(P.gens) + rungs))

    def transformation(F, G):
        return search(Functor(F.obj_map + G.obj_map, F.gen_map + G.gen_map + rungs), b, bool)

    label, members = list(range(len(functors))), {i: [i] for i in range(len(functors))}
    for i, F in enumerate(functors):
        if len(members) == 1:
            break
        for j in sorted(j for c, js in members.items() if c != label[i] for j in js if j > i):
            if label[j] != label[i]:  # a joined pair cannot change the partition
                b.spend()
                if transformation(F, functors[j]) or transformation(functors[j], F):
                    keep, drop = sorted((label[i], label[j]), key=lambda c: -len(members[c]))
                    for k in members[drop]:
                        label[k] = keep
                    members[keep] += members.pop(drop)
    classes = [[functors[i] for i in js] for js in sorted(sorted(js) for js in members.values())]
    index = {F: k for k, js in enumerate(classes) for F in js}
    return classes, index.get, len(functors)


def gauge_classes(P, G, budget=None):
    """Homotopy classes of functors from P into the group G, by gauge fixing.

    Transformations between functors into a group are the gauges u in
    G^objects, acting by F(e) -> u_src^-1 F(e) u_tgt, so the classes are
    the orbits.  Each orbit meets the functors that are the unit on a
    spanning forest of the generator graph (generators in index order),
    and only those are enumerated.  Returns (reps, class_of,
    functor_count): the lex-least member of each class over its full
    orbit (the member the exhaustive enumeration lists first), in that
    order; the class index of a functor (None for a non-functor); and
    |fixed| * |G|^(objects - components), the forest's edge count.
    """
    if not G.is_group():
        raise CatError("gauge fixing needs a group target")
    forest = cset.UnionFind(range(P.n_obj))
    tree = tuple(G.unit if forest.union(s, t) else None for s, t in P.gens)
    fixed = enumerate_functors(P, G, budget, Functor((None,) * P.n_obj, tree))
    reps = sorted({_least_gauge_member(P, G, F.gen_map) for F in fixed})
    index = {w: k for k, w in enumerate(reps)}
    count = len(fixed) * G.size ** (len(tree) - tree.count(None))
    class_of = lambda F: index.get(_least_gauge_member(P, G, F.gen_map))
    return [Functor((0,) * P.n_obj, w) for w in reps], class_of, count


def _least_gauge_member(P, G, gen_map):
    """The lex-least (u_src^-1 F(e) u_tgt)_e over all gauges u in G^objects.

    Generators are read in index order.  The objects they have joined so
    far form blocks, each with a root: u_v = left[v] u_root right[v], the
    smaller block relabelled on a merge.  Per block only the root values
    reaching the least prefix so far are kept, at most |G| of them.
    """
    T, n, e, V = G.table, G.size, G.unit, P.n_obj
    inv = [row.index(e) for row in T]
    root, left, right, members = list(range(V)), [e] * V, [e] * V, [[v] for v in range(V)]
    allowed = [set(range(n)) for _ in range(V)]
    out = []
    for (s, t), f in zip(P.gens, gen_map):
        rs, rt = root[s], root[t]
        mid, r_s, r_t = T[T[inv[left[s]]][f]][left[t]], right[s], right[t]

        def value(a, b):  # u_s^-1 f u_t at root values a, b
            return T[T[inv[r_s]][T[inv[a]][mid]]][T[b][r_t]]

        alpha, beta = allowed[rs], allowed[rt]
        if rs == rt:
            m = min(value(a, a) for a in alpha)
            allowed[rs] = {a for a in alpha if value(a, a) == m}
        else:
            full = n in (len(alpha), len(beta))  # then every value is reached
            m = 0 if full else min(value(a, b) for a in alpha for b in beta)
            # value(a, b) == m exactly when b = mid^-1 a r_s m r_t^-1
            L, R = inv[mid], T[T[r_s][m]][inv[r_t]]
            if len(members[rs]) < len(members[rt]):
                rs, rt, alpha, beta, L, R = rt, rs, beta, alpha, mid, inv[R]
            for v in members[rt]:
                root[v], left[v], right[v] = rs, T[left[v]][L], T[R][right[v]]
            members[rs] += members[rt]
            allowed[rs] = {a for a in alpha if T[T[L][a]][R] in beta}
        out.append(m)
    return tuple(out)
