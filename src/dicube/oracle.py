"""Independent brute-force engines the primary modules are tested against.

Evaluation here is deliberately separate from the primary code paths: cube
points are bitmasks (join = OR, meet = AND), composition is raw table
lookup, and homotopy detection searches cubical functions directly: one DFS
(`_function_search`) lists the maps B -> C and joins each pair not yet joined
by first-hit searches over the cylinder with both ends pinned, either way round.

One DFS (`_monotone_tables`) lists the tables of `all_monotone`,
`cube_monotone_tables` and `monotone_bijection_tables`, charging each point
once for all its values; `interval_hom_tables` keeps its own search on
purpose, so that criterion 1's naive filter compares two separate searches.
Both offer a point only the values its property leaves open: a bijection
the unused values with large enough down- and up-sets, an interval
homomorphism at an atom the value of 0 and its covers, at a join the one
forced value.  The generator closures close one domain [1]^m at a time
and charge their caller one unit per table of it, also when an earlier
call built it; the Boolean-interval isomorphism search one unit per value.
"""

from __future__ import annotations

import functools
import itertools

from .config import Budget
from .cube import CubeError  # the error type only


# ---------------------------------------------------------------------------
# monotone map enumeration over arbitrary finite posets


def all_monotone(p_leq, q_leq, budget=None):
    """All monotone functions P -> Q as value tuples, lexicographic order.

    Refuses upfront when |Q| ** |P| exceeds the budget.
    """
    b = Budget.of(budget)
    np, nq = len(p_leq), len(q_leq)
    if nq**np > b.limit:
        b.spend(nq**np)  # raises
    return _monotone_tables(p_leq, q_leq, b)


def _monotone_tables(p_leq, q_leq, budget, injective=False):
    """All monotone functions P -> Q (one-to-one when `injective`) as value
    tuples, lexicographic order.

    DFS over the points of P in index order.  A point i is offered every
    value of Q, or when `injective` every unused v with |down v| >= |down i|
    and |up v| >= |up i| (a one-to-one monotone map sends down i one-to-one
    into down v, and up i into up v), and is charged for all of them at once.
    It keeps those above the values of the earlier points below it and below
    the values of the earlier points above it, tried ascending.  Values are
    bitmasks over Q, so that filter is one AND per earlier comparable point.
    """
    b = Budget.of(budget)
    np, nq = len(p_leq), len(q_leq)
    up = [sum(1 << w for w in range(nq) if q_leq[v][w]) for v in range(nq)]
    down = [sum(1 << w for w in range(nq) if q_leq[w][v]) for v in range(nq)]
    below = [[j for j in range(i) if p_leq[j][i]] for i in range(np)]
    above = [[j for j in range(i) if p_leq[i][j]] for i in range(np)]
    fits = [(1 << nq) - 1] * np
    if injective:
        p_sizes = [(sum(row[i] for row in p_leq), sum(p_leq[i])) for i in range(np)]
        q_sizes = [(down[v].bit_count(), up[v].bit_count()) for v in range(nq)]
        fits = [
            sum(1 << v for v, (d, u) in enumerate(q_sizes) if d >= pd and u >= pu)
            for pd, pu in p_sizes
        ]
    out = []
    values = [0] * np

    def rec(i, free):
        if i == np:
            out.append(tuple(values))
            return
        allowed = free & fits[i]
        b.spend(allowed.bit_count())
        for j in below[i]:
            allowed &= up[values[j]]
        for j in above[i]:
            allowed &= down[values[j]]
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            values[i] = bit.bit_length() - 1
            rec(i + 1, free ^ bit if injective else free)

    rec(0, (1 << nq) - 1)
    return out


# ---------------------------------------------------------------------------
# bitmask cube world: points of [1]^m are ints 0..2^m-1, bit j = coordinate j


def _cube_leq(x, y):
    return x & y == x


def _check_dims(*dims):
    if min(dims) < 0:
        raise CubeError(f"dimensions must be nonnegative, got {', '.join(map(str, dims))}")


def _cube_order(n):
    points = range(1 << n)
    return [[_cube_leq(x, y) for y in points] for x in points]


def cube_monotone_tables(m, n, budget=None):
    """All monotone tables [1]^m -> [1]^n, DFS over points in mask order."""
    _check_dims(m, n)
    return _monotone_tables(_cube_order(m), _cube_order(n), budget)


def _table_is_hom(values, m, n):
    size = 1 << m
    for x in range(size):
        for y in range(x, size):
            if values[x | y] != values[x] | values[y]:
                return False
            if values[x & y] != values[x] & values[y]:
                return False
    return True


@functools.cache
def _interval_tables(d):
    """The intervals (lo, hi, points) of [1]^d, and masks[a][b], the bitmask
    of the points of [a, b] (0 unless a <= b)."""
    points = range(1 << d)
    inside = [
        [[z for z in points if _cube_leq(a, z) and _cube_leq(z, b)] for b in points]
        for a in points
    ]
    intervals = [(a, b, inside[a][b]) for a in points for b in points if _cube_leq(a, b)]
    return intervals, [[sum(1 << z for z in inside[a][b]) for b in points] for a in points]


def _table_preserves_intervals(values, m, n):
    masks = _interval_tables(n)[1]
    for lo, hi, points in _interval_tables(m)[0]:
        image = 0
        for z in points:
            image |= 1 << values[z]
        if image != masks[values[lo]][values[hi]]:
            return False
    return True


def interval_hom_tables(m, n, budget=None):
    """Interval-preserving lattice homomorphisms [1]^m -> [1]^n as tables.

    DFS over assignments in mask order.  When mask i is assigned: meets
    j & i are already assigned for every j < i, and every pair with union
    exactly i has both members assigned, so the homomorphism equations can
    be enforced incrementally.  Mask 0 is offered every value; an atom a
    the value of 0 and its covers, at most n + 1 values, since [0, a] must
    map onto an interval; any other mask, the join of an earlier pair, that
    one forced value.  Each level is charged once for all it offers.  Every
    j < i is checked by the meet equation, for j below i monotonicity.
    Leaves send atoms to f(0) or its covers, so they preserve intervals.
    This enumerator never consults the normal-form calculus it checks.
    """
    _check_dims(m, n)
    b = Budget.of(budget)
    size = 1 << m
    join_pairs = [
        [(x, y) for x in range(i) for y in range(x, i) if x | y == i]
        for i in range(size)
    ]
    meets = [[(j, j & i) for j in range(i)] for i in range(size)]
    out = []
    values = [0] * size

    def rec(i):
        if i == size:
            out.append(tuple(values))
            return
        if join_pairs[i]:
            x, y = join_pairs[i][0]
            offered = [values[x] | values[y]]
        elif i:
            covers = (1 << k for k in range(n) if not values[0] >> k & 1)
            offered = [values[0], *(values[0] | bit for bit in covers)]
        else:
            offered = range(1 << n)
        b.spend(len(offered))
        for v in offered:
            for j, k in meets[i]:
                if values[k] != values[j] & v:
                    break
            else:
                for x, y in join_pairs[i]:
                    if values[x] | values[y] != v:
                        break
                else:
                    values[i] = v
                    rec(i + 1)
    rec(0)
    return set(out)


def monotone_bijection_tables(n, budget=None):
    """All monotone bijections [1]^n -> [1]^n, DFS over points in mask order."""
    _check_dims(n)
    order = _cube_order(n)
    return _monotone_tables(order, order, budget, injective=True)


# ---------------------------------------------------------------------------
# generator closure: composites of cofaces, codegeneracies, transpositions


def _compose_tables(g, f):
    # f: (m, n, values over 2^m), g: (n, p, ...) -> g o f
    fm, fn, fv = f
    gn, gp, gv = g
    assert fn == gn
    return (fm, gp, tuple(gv[v] for v in fv))


def _generator_tables(max_dim):
    gens = []
    for d in range(0, max_dim + 1):
        gens.append((d, d, tuple(range(1 << d))))  # identity
    for d in range(1, max_dim + 1):
        for i in range(d):  # coface inserting bit i at dimension d
            for sign in (0, 1):
                values = []
                for x in range(1 << (d - 1)):
                    low = x & ((1 << i) - 1)
                    high = x >> i
                    values.append(low | (sign << i) | (high << (i + 1)))
                gens.append((d - 1, d, tuple(values)))
        for i in range(d):  # codegeneracy dropping bit i
            values = []
            for x in range(1 << d):
                low = x & ((1 << i) - 1)
                high = x >> (i + 1)
                values.append(low | (high << i))
            gens.append((d, d - 1, tuple(values)))
        for i in range(d - 1):  # transposition of bits i, i+1
            values = []
            for x in range(1 << d):
                bi = (x >> i) & 1
                bj = (x >> (i + 1)) & 1
                y = x & ~(1 << i) & ~(1 << (i + 1))
                values.append(y | (bj << i) | (bi << (i + 1)))
            gens.append((d, d, tuple(values)))
    return gens


def _closure(generators, m, budget):
    # Compose-only closure of the composites out of [1]^m.  The generator
    # set lists every identity padding of the elementary generators, and a
    # tensor of composites is a composite of identity-padded tensors
    # (interchange), so composition reaches the full monoidal closure.
    # Every composite is a generator applied after a shorter one, and left
    # composition keeps the domain: start from the generators out of [1]^m
    # and compose each table on the left with those out of its codomain.
    b = Budget.of(budget)
    by_dom = {}
    for g in generators:
        by_dom.setdefault(g[0], []).append(g)
    tables = set(by_dom.get(m, ()))
    worklist = list(tables)
    while worklist:
        t = worklist.pop()
        b.spend()
        for g in by_dom.get(t[1], ()):
            c = _compose_tables(g, t)
            if c not in tables:
                tables.add(c)
                worklist.append(c)
    return tables


_UNIVERSES = {}


def _closure_universe(m, max_dim, cofaces, budget):
    """The composites out of [1]^m of the generator tables of dimensions
    <= max_dim, the cofaces left out unless `cofaces`, charged to `budget`.

    The first call builds it under `budget` (one unit per table) and keeps
    it only once the build finishes; a later call charges what the build
    did, so the charge does not depend on what is already built.
    """
    key = (m, max_dim, cofaces)
    if key in _UNIVERSES:
        Budget.of(budget).spend(len(_UNIVERSES[key]))
        return _UNIVERSES[key]
    gens = _generator_tables(max_dim)
    if not cofaces:
        gens = [t for t in gens if t[0] >= t[1]]
    _UNIVERSES[key] = frozenset(_closure(gens, m, budget))
    return _UNIVERSES[key]


def generator_closure(m, n, budget=None):
    """Tables of all composites of tensors of the generators, dom m cod n.

    Closes the generators out of [1]^m under composition on the left with
    the generators of dimensions <= max(m, n) + 1, from a worklist, to a
    fixpoint, charging one unit per table of that closure.
    """
    _check_dims(m, n)
    universe = _closure_universe(m, max(m, n) + 1, True, budget)
    return {t[2] for t in universe if t[1] == n}


def epi_closure(m, n, budget=None):
    """Composites of codegeneracies and transpositions only, dom m cod n,
    closed like `generator_closure` but through dimensions <= max(m, n)."""
    _check_dims(m, n)
    universe = _closure_universe(m, max(m, n), False, budget)
    return {t[2] for t in universe if t[1] == n}


def transposition_closure(n, budget=None):
    """Composites of principal coordinate transpositions [1]^n -> [1]^n."""
    _check_dims(n)
    gens = [t for t in _generator_tables(n) if t[0] == t[1] == n]
    return {t[2] for t in _closure(gens, n, budget)}


# ---------------------------------------------------------------------------
# Boolean-interval detection by explicit isomorphism search


def is_boolean_by_isomorphism(leq, elems, budget=None):
    """Whether the subposet on `elems` is order-isomorphic to some [1]^k,
    by a first-hit search charging one unit per value tried."""
    b = Budget.of(budget)
    size = len(elems)
    if size == 0 or size & (size - 1):  # [1]^k has 2^k >= 1 points
        return False
    elems = list(elems)
    assign = {}
    used = [False] * size

    def rec(pos):
        if pos == size:
            return True
        x = elems[pos]
        for v in range(size):
            if used[v]:
                continue
            b.spend()
            ok = True
            for y in elems[:pos]:
                w = assign[y]
                if leq[x][y] != _cube_leq(v, w) or leq[y][x] != _cube_leq(w, v):
                    ok = False
                    break
            if ok:
                assign[x] = v
                used[v] = True
                if rec(pos + 1):
                    return True
                del assign[x]
                used[v] = False
        return False

    return rec(0)


# ---------------------------------------------------------------------------
# exhaustive homotopy graphs (the presheaf-side oracle)


def _boundary(C, n, y):
    """The faces of the n-cell y of C, in the order (1, 0), (1, 1), ..., (n, 1)."""
    return tuple(C.faces[(n, i, eps)][y] for i in range(1, n + 1) for eps in (0, 1))


def _cells_by_boundary(C, n):
    """The n-cells of C grouped by boundary tuple, each group ascending."""
    index = {}
    for y in C.cells(n):
        index.setdefault(_boundary(C, n, y), []).append(y)
    return index


def _function_search(B, C, b, pinned=None):
    """The per-dimension DFS for cubical functions B -> C, set up once.

    Free choices are the transposition-orbit representatives of the
    nondegenerate cells outside `pinned` (per level, cells closed under
    transposition); orbit mates and degenerate cells are forced.  The cells
    of C are indexed by boundary once per dimension: a representative is
    offered, and charged for, only the C-cells whose boundary is the image
    of its own.  As soon as the boundary of a higher cell of B is
    determined, some C-cell must have that boundary.  `search(fixed)` lazily
    yields, in lexicographic order, the level tuples of the functions that
    send the pinned cells to `fixed` (None when nothing is pinned); taking
    only the first charges for the search up to it.  Pinned cells are set,
    and checked against the boundary index, before any representative.
    """
    trunc = min(B.trunc, C.trunc)
    pinned = pinned or [()] * (trunc + 1)
    by_boundary = [_cells_by_boundary(C, n) for n in range(trunc + 1)]

    # per-level static data
    level_data = []
    for n in range(trunc + 1):
        nondeg = set(B.nondegenerate(n))
        degen_src = {i: B.degeneracy_source(n, i) for i in B.cells(n) if i not in nondeg}
        nondeg -= set(pinned[n])
        # orbit structure: root representative, transposition path, mates
        root, path, mates = {}, {}, {}
        for i in sorted(nondeg):
            if i in root:
                continue
            root[i], path[i], mates[i] = i, (), []
            queue = [i]
            while queue:
                cur = queue.pop()
                for it in range(1, n):
                    mate = B.transps[(n, it)][cur]
                    if mate in nondeg and mate not in root:
                        root[mate] = i
                        path[mate] = path[cur] + (it,)
                        mates[i].append(mate)
                        queue.append(mate)
        reps = list(mates)
        rep_pos = {r: p for p, r in enumerate(reps)}
        rep_faces = [_boundary(B, n, i) for i in reps]
        pin_faces = [(c, _boundary(B, n, c)) for c in pinned[n]]
        # boundaries of higher cells of B, keyed by the position of the last
        # representative they depend on (-1: none, every face pinned or forced)
        triggers = {}
        if n < trunc:
            for y in B.nondegenerate(n + 1):
                faces = _boundary(B, n + 1, y)
                deps = {rep_pos[root[f]] for f in faces if f in root}
                triggers.setdefault(max(deps, default=-1), []).append(faces)
        level_data.append((reps, mates, path, rep_faces, pin_faces, degen_src, triggers))

    def extend(maps, n, fixed):
        if n > trunc:
            yield maps
            return
        reps, mates, path, rep_faces, pin_faces, degen_src, triggers = level_data[n]
        values = [None] * B.sizes[n]
        for i, (j, x) in degen_src.items():
            values[i] = C.degens[(n - 1, j)][maps[n - 1][x]]
        for (i, faces), y in zip(pin_faces, fixed[n] if fixed else ()):
            if y not in by_boundary[n].get(tuple(maps[n - 1][f] for f in faces), ()):
                return
            values[i] = y
        closing = by_boundary[n + 1] if n < trunc else {}

        def closes(pos):
            return all(
                tuple(values[f] for f in faces) in closing for faces in triggers.get(pos, ())
            )

        def assign(pos):
            if pos == len(reps):
                for it in range(1, n):
                    tb = B.transps[(n, it)]
                    tc = C.transps[(n, it)]
                    if any(tc[values[i]] != values[tb[i]] for i in B.cells(n)):
                        return
                yield from extend(maps + (tuple(values),), n + 1, fixed)
                return
            i = reps[pos]
            offered = by_boundary[n].get(tuple(maps[n - 1][f] for f in rep_faces[pos]), ())
            b.spend(len(offered))
            for y in offered:
                values[i] = y
                for mate in mates[i]:
                    v = y
                    for it in path[mate]:
                        v = C.transps[(n, it)][v]
                    values[mate] = v
                if closes(pos):
                    yield from assign(pos + 1)

        if closes(-1):
            yield from assign(0)

    # Already in lexicographic order: a representative is the least free cell
    # of its orbit, every cell before it is degenerate, pinned or already
    # fixed, and its values are offered in ascending order.
    return functools.partial(extend, (), 0)


def enumerate_cubical_functions(B, C, budget=None):
    """All cubical functions B -> C in lexicographic order: the
    `_function_search` with nothing pinned."""
    from .cset import CubicalFunction  # the data type only

    search = _function_search(B, C, Budget.of(budget))
    return [CubicalFunction(B, C, maps) for maps in search(None)]


class OracleError(ValueError):
    """An oracle result that contradicts itself."""


def homotopy_graph(B, C, budget=None):
    """Nodes: all cubical functions B -> C; edges: a spanning forest of the
    elementary homotopies, cubical functions from the cylinder B (x) [1],
    either way round.

    The pairs i < j of nodes are walked in lexicographic order; a pair not
    yet in one component gets a first-hit search over the cylinder with the
    nondegenerate cells of its ends pinned to (f, g), then, if none is
    found, to (g, f).  A hit is read back through both end inclusions and
    merges the two components; a skipped pair is already joined by
    verified homotopies.  Where homotopies are scarce and nodes many, these
    up to |nodes|^2 searches charge more than listing every cubical
    function out of the cylinder (torus into N(Z/4): 997 against 699),
    elsewhere less (the square into N(Z/4): 1,668 against 337,652).
    """
    from . import cset

    b = Budget.of(budget)
    maps = enumerate_cubical_functions(B, C, b)
    cyl, incl0, incl1 = cset.cylinder(B)
    levels = range(min(B.trunc, C.trunc) + 1)
    nondeg = [B.nondegenerate(n) for n in levels]
    end_cells = [[e.maps[n][x] for e in (incl0, incl1) for x in nondeg[n]] for n in levels]
    search = _function_search(cyl, C, b, end_cells)
    # each node's values on the nondegenerate cells, pinned at either end
    pins = [[tuple(f.maps[n][x] for x in nondeg[n]) for n in levels] for f in maps]
    # each node's component, named by a member; the smaller merges into the larger
    label = list(range(len(maps)))
    members = [[i] for i in label]
    edges = set()
    for i, j in itertools.combinations(range(len(maps)), 2):
        if label[i] == label[j]:
            continue
        for s, t in ((i, j), (j, i)):
            found = next(search([ps + pt for ps, pt in zip(pins[s], pins[t])]), None)
            if found is not None:
                h = cset.CubicalFunction(cyl, C, found)
                if [h.compose_after(e).maps for e in (incl0, incl1)] != [maps[s].maps, maps[t].maps]:
                    raise OracleError("internal: homotopy ends differ from their pins")
                edges.add((i, j))
                small, big = sorted((label[i], label[j]), key=lambda c: len(members[c]))
                for k in members[small]:
                    label[k] = big
                members[big] += members[small]
                break
    return maps, edges
