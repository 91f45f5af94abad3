import ast
import hashlib
import itertools
import random
import time
from functools import lru_cache, partial
from pathlib import Path

import pytest

from dicube import acceptance, cat, cset, lattice as lat, oracle, spaces
from dicube.config import Budget, BudgetExceeded
from dicube.cube import CubeError


def test_all_monotone_counts():
    b1 = lat.boolean(1).poset.leq
    b2 = lat.boolean(2).poset.leq
    assert len(oracle.all_monotone(b1, b1)) == 3
    assert len(oracle.all_monotone(b2, b1)) == 6
    assert len(oracle.all_monotone(b1, b2)) == 9


def test_all_monotone_budget_guard():
    b3 = lat.boolean(3).poset.leq
    with pytest.raises(BudgetExceeded):
        oracle.all_monotone(b3, b3, budget=1000)


def test_all_monotone_lex_order_and_uniqueness():
    b1 = lat.boolean(1).poset.leq
    maps = oracle.all_monotone(b1, b1)
    assert maps == sorted(maps)
    assert len(set(maps)) == len(maps)


def _per_value_monotone(p_leq, q_leq, b, injective=False):
    """Reference for `_monotone_tables`: the per-value DFS that was behind
    `all_monotone`, `cube_monotone_tables` and (with `injective`)
    `monotone_bijection_tables`, one charge per value offered."""
    np, nq = len(p_leq), len(q_leq)
    out = []
    values = [0] * np
    used = [False] * nq

    def rec(i):
        if i == np:
            out.append(tuple(values))
            return
        for v in range(nq):
            if injective and used[v]:
                continue
            b.spend()
            ok = True
            for j in range(i):
                if p_leq[j][i] and not q_leq[values[j]][v]:
                    ok = False
                    break
                if p_leq[i][j] and not q_leq[v][values[j]]:
                    ok = False
                    break
            if ok:
                used[v] = True
                values[i] = v
                rec(i + 1)
                used[v] = False
    rec(0)
    return out


def _cube_order(n):
    return [[x & y == x for y in range(1 << n)] for x in range(1 << n)]


def _random_poset(rng, size):
    """A random partial order on `size` points, labels shuffled so that
    index order is often not a linear extension."""
    leq = [[x == y or (x < y and rng.random() < 0.4) for y in range(size)] for x in range(size)]
    for k in range(size):  # transitive closure
        for x in range(size):
            for y in range(size):
                leq[x][y] = leq[x][y] or (leq[x][k] and leq[k][y])
    perm = list(range(size))
    rng.shuffle(perm)
    return [[leq[perm[x]][perm[y]] for y in range(size)] for x in range(size)]


def _monotone_instances():
    for m, n in [(m, n) for m in range(4) for n in range(4)] + [(2, 4), (4, 2)]:
        new = partial(oracle.cube_monotone_tables, m, n)
        yield f"cube({m}, {n})", new, _cube_order(m), _cube_order(n), False
    for n in range(5):
        new = partial(oracle.monotone_bijection_tables, n)
        yield f"bijections({n})", new, _cube_order(n), _cube_order(n), True
    rng = random.Random(10)
    for k in range(60):
        P, Q = _random_poset(rng, rng.randint(0, 5)), _random_poset(rng, rng.randint(1, 4))
        yield f"random {k}", partial(oracle.all_monotone, P, Q), P, Q, False


def test_one_monotone_dfs_matches_the_per_value_searches():
    total = 0
    # bijections are offered only the values whose down- and up-sets are
    # large enough; the per-value search charged 1, 4, 32, 1,186 and 264,092
    injective_charges = {}
    for name, new, P, Q, injective in _monotone_instances():
        b_new, b_ref = Budget(10**7), Budget(10**7)
        assert new(b_new) == _per_value_monotone(P, Q, b_ref, injective), name
        if injective:
            assert b_new.used <= b_ref.used, name
            injective_charges[name] = b_new.used
        else:
            assert b_new.used == b_ref.used, name
        total += b_new.used
    assert injective_charges == {f"bijections({n})": c for n, c in enumerate([1, 2, 7, 58, 761])}
    assert total == 454_847
    # an overrun is reported on both sides; here at the entry of the node
    # whose values cross the limit, there at the value that crosses it
    b_new, b_ref = Budget(40), Budget(40)
    with pytest.raises(BudgetExceeded):
        oracle.monotone_bijection_tables(3, b_new)
    with pytest.raises(BudgetExceeded):
        _per_value_monotone(_cube_order(3), _cube_order(3), b_ref, True)
    assert (b_new.used, b_ref.used) == (42, 41)


def test_injective_size_filter_matches_the_per_value_search_off_the_cube():
    rng = random.Random(11)
    drops = 0
    for k in range(60):
        q = rng.randint(1, 6)
        P, Q = _random_poset(rng, rng.randint(0, q)), _random_poset(rng, q)
        b_new, b_ref = Budget(10**7), Budget(10**7)
        tables = oracle._monotone_tables(P, Q, b_new, injective=True)
        assert tables == _per_value_monotone(P, Q, b_ref, True), k
        assert b_new.used <= b_ref.used, k
        drops += b_new.used < b_ref.used
    assert drops > 0  # the filter prunes off the cube too


def test_monotone_bijections_of_the_5_cube():
    # the per-value offers overran a budget of 2 * 10**7
    b = Budget(10**6)
    start = time.perf_counter()
    tables = oracle.monotone_bijection_tables(5, b)
    assert time.perf_counter() - start < 1.0
    assert len(tables) == 120
    assert set(tables) == oracle.transposition_closure(5)
    assert b.used == 12_826


def test_generator_closure_counts():
    assert len(oracle.generator_closure(1, 1)) == 3
    assert len(oracle.generator_closure(2, 2)) == 14
    assert len(oracle.generator_closure(2, 1)) == 4


def test_closure_equals_hom_filter():
    for m in range(4):
        for n in range(4):
            assert oracle.generator_closure(m, n) == oracle.interval_hom_tables(
                m, n, budget=10**7
            ), (m, n)


def _sets_preserve_intervals(values, m, n):
    """Definition of `_table_preserves_intervals`: the image of every
    interval [lo, hi] of [1]^m is the whole interval [values[lo],
    values[hi]] of [1]^n, both sides built as sets of points."""
    leq = oracle._cube_leq
    size = 1 << m
    for lo in range(size):
        for hi in range(size):
            if not leq(lo, hi):
                continue
            image = {values[z] for z in range(size) if leq(lo, z) and leq(z, hi)}
            expected = {
                w for w in range(1 << n) if leq(values[lo], w) and leq(w, values[hi])
            }
            if image != expected:
                return False
    return True


def _per_value_interval_homs(m, n, b):
    """Reference for `interval_hom_tables`: the DFS that offered every value
    at every mask, one charge per value, followed by the set-built filter."""
    leq = oracle._cube_leq
    size = 1 << m
    join_pairs = [
        [(x, y) for x in range(i) for y in range(x, i) if x | y == i]
        for i in range(size)
    ]
    out = []
    values = [0] * size

    def rec(i):
        if i == size:
            if oracle._table_is_hom(values, m, n) and _sets_preserve_intervals(values, m, n):
                out.append(tuple(values))
            return
        for v in range(1 << n):
            b.spend()
            ok = True
            for j in range(i):
                if leq(j, i) and not leq(values[j], v):
                    ok = False
                    break
                if values[j & i] != values[j] & v:
                    ok = False
                    break
            if ok:
                for x, y in join_pairs[i]:
                    if values[x] | values[y] != v:
                        ok = False
                        break
            if ok:
                values[i] = v
                rec(i + 1)
    rec(0)
    return set(out)


def test_interval_hom_tables_match_the_per_value_search():
    pairs = [(m, n) for m in range(4) for n in range(4)] + [(3, 4), (4, 3)]
    for m, n in pairs:
        assert oracle.interval_hom_tables(m, n, 10**7) == _per_value_interval_homs(
            m, n, Budget(10**7)
        ), (m, n)
    # recorded from the per-value search, left out at (4, 4) for its run time
    homs = oracle.interval_hom_tables(4, 4, 10**7)
    digest = hashlib.sha256(repr(sorted(homs)).encode()).hexdigest()
    assert len(homs) == 648
    assert digest == "538c44c73bd980735fdf29bbf4ce4db195963e0829f75fdce8c24316c915c6b4"
    # the DFS keeps its leaves unfiltered; each is a hom that keeps intervals
    for t in homs:
        assert oracle._table_is_hom(t, 4, 4) and oracle._table_preserves_intervals(t, 4, 4), t


def test_interval_hom_tables_charge_each_level_once():
    # forced joins, and atoms offered the value of 0 and its covers: the
    # per-value search charged 194,912, 17,408, 39,760 and 4,312 units for
    # these four calls
    charges = {(4, 4): 7_440, (4, 3): 1_862, (3, 4): 1_728, (3, 3): 520}
    for (m, n), charge in charges.items():
        b = Budget(10**7)
        oracle.interval_hom_tables(m, n, b)
        assert b.used == charge, (m, n)
    # an overrun is raised at the entry of the level that crosses the limit:
    # mask 0 is offered 16 values and mask 1 the 5 of 0 and its covers,
    # where the per-value search stopped at the 21st value
    b = Budget(20)
    with pytest.raises(BudgetExceeded):
        oracle.interval_hom_tables(4, 4, b)
    assert b.used == 21


def test_interval_filter_matches_its_definition():
    outcomes = set()
    for m in range(4):
        for n in range(4):
            for t in oracle.cube_monotone_tables(m, n, 10**7):
                kept = oracle._table_preserves_intervals(t, m, n)
                assert kept == _sets_preserve_intervals(t, m, n), (m, n, t)
                outcomes.add(kept)
    assert outcomes == {False, True}


def test_monotone_bijections_are_permutations():
    import math

    for n in range(4):
        assert len(oracle.monotone_bijection_tables(n)) == math.factorial(n)
        assert oracle.transposition_closure(n) == set(oracle.monotone_bijection_tables(n))


def test_is_boolean_by_isomorphism_charges_each_value_tried():
    cube4, chain16 = lat.boolean(4), lat.chain(15)
    for L, answer, charge in ((cube4, True, 16), (chain16, False, 3_868)):
        b = Budget(10**6)
        assert oracle.is_boolean_by_isomorphism(L.poset.leq, range(16), b) is answer
        assert b.used == charge
        b = Budget(charge - 1)
        with pytest.raises(BudgetExceeded):
            oracle.is_boolean_by_isomorphism(L.poset.leq, range(16), b)
        assert b.used == charge
    for name, L in acceptance._lattice_catalog().items():
        for lo in range(L.size):
            for hi in range(L.size):
                if L.leq(lo, hi):
                    elems = lat.interval_elements(L, lo, hi)
                    found = oracle.is_boolean_by_isomorphism(L.poset.leq, elems, Budget(10**4))
                    assert found == (lat.boolean_rank(L, lo, hi) is not None), (name, lo, hi)


def test_the_empty_poset_is_no_cube():
    leq = lat.boolean(2).poset.leq
    b = Budget(10)
    assert oracle.is_boolean_by_isomorphism(leq, [], b) is False
    assert b.used == 0
    assert oracle.is_boolean_by_isomorphism(leq, [1], b) is True  # [1]^0


def _two_sided_closure(generators, max_dim, budget):
    """Reference closure: compose each new table with every known table on
    either side."""
    b = Budget.of(budget)
    tables = set(generators)
    by_dom = {d: [] for d in range(max_dim + 1)}
    by_cod = {d: [] for d in range(max_dim + 1)}
    for t in tables:
        by_dom[t[0]].append(t)
        by_cod[t[1]].append(t)
    worklist = list(tables)
    while worklist:
        t = worklist.pop()
        b.spend()
        fresh = []
        for s in list(by_dom[t[1]]):
            fresh.append(oracle._compose_tables(s, t))
        for s in list(by_cod[t[0]]):
            fresh.append(oracle._compose_tables(t, s))
        for c in fresh:
            if c not in tables:
                tables.add(c)
                by_dom[c[0]].append(c)
                by_cod[c[1]].append(c)
                worklist.append(c)
    return tables


def _all_domain_closure(generators, max_dim, budget):
    """Reference closure out of every domain at once: start from all the
    generators and compose each table on the left with the generators out
    of its codomain."""
    b = Budget.of(budget)
    tables = set(generators)
    by_dom = {d: [] for d in range(max_dim + 1)}
    for g in tables:
        by_dom[g[0]].append(g)
    worklist = list(tables)
    while worklist:
        t = worklist.pop()
        b.spend()
        for g in by_dom[t[1]]:
            c = oracle._compose_tables(g, t)
            if c not in tables:
                tables.add(c)
                worklist.append(c)
    return tables


def _closure_instances():
    for d in range(5):
        gens = oracle._generator_tables(d)
        yield f"all@{d}", gens, d
        yield f"epi@{d}", [t for t in gens if t[0] >= t[1]], d
    for n in range(6):
        yield f"transp@{n}", [t for t in oracle._generator_tables(n) if t[0] == t[1] == n], n


def test_left_closure_matches_the_two_sided_closure():
    for name, gens, max_dim in _closure_instances():
        b_left, b_both = Budget(10**8), Budget(10**8)
        left = set().union(*(oracle._closure(gens, m, b_left) for m in range(max_dim + 1)))
        assert left == _two_sided_closure(gens, max_dim, b_both), name
        assert b_left.used == b_both.used == len(left), name
    gens = oracle._generator_tables(4)
    assert sum(len(oracle._closure(gens, m, None)) for m in range(5)) == 1559


def test_per_domain_closure_is_the_domain_slice_of_the_all_domain_closure():
    for max_dim in range(5):
        for cofaces in (True, False):
            gens = oracle._generator_tables(max_dim)
            if not cofaces:
                gens = [t for t in gens if t[0] >= t[1]]
            reference = _all_domain_closure(gens, max_dim, None)
            for m in range(max_dim + 1):
                b = Budget(10**6)
                part = oracle._closure_universe(m, max_dim, cofaces, b)
                assert part == {t for t in reference if t[0] == m}, (m, max_dim, cofaces)
                assert b.used == len(part), (m, max_dim, cofaces)


def test_left_closure_composes_each_table_once_per_generator(monkeypatch):
    gens = oracle._generator_tables(4)
    out_of = {d: sum(g[0] == d for g in gens) for d in range(5)}
    calls = []
    compose = oracle._compose_tables
    monkeypatch.setattr(oracle, "_compose_tables", lambda g, f: calls.append(1) or compose(g, f))
    counts = []
    for m in range(5):
        calls.clear()
        tables = oracle._closure(gens, m, None)
        assert len(calls) == sum(out_of[t[1]] for t in tables), m
        counts.append(len(calls))
    # the domains' parts of the all-domain closure's 14,427 compositions
    assert counts == [295, 765, 1807, 3889, 7671]


def test_closures_charge_their_caller():
    with pytest.raises(BudgetExceeded):
        oracle.generator_closure(3, 3, Budget(5))
    with pytest.raises(BudgetExceeded):
        oracle.epi_closure(3, 3, Budget(5))
    # the same charge whether the closure is built by this call or was
    # built before: one unit per table out of [1]^m through dimension 4
    b = Budget(10**6)
    assert len(oracle.generator_closure(3, 3, b)) == 86
    assert b.used == 418
    assert len(oracle.generator_closure(2, 3, b)) == 44
    assert b.used == 418 + 191


# What oracle.py may take from the library it checks: the budget and error
# types, the data type of its results, and `cset.cylinder`, which only
# builds the domain B (x) [1] whose cubical functions `homotopy_graph`
# then enumerates with the oracle's own search.
ORACLE_IMPORTS = {
    ("config", "Budget"),
    ("cube", "CubeError"),
    ("cset", "CubicalFunction"),
    ("cset", "cylinder"),
}


def test_oracle_takes_only_allowed_names_from_the_library():
    tree = ast.parse(Path(oracle.__file__).read_text())
    taken, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "dicube" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "dicube":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                if module:
                    taken.add((module, alias.name))
                else:
                    modules.add(alias.asname or alias.name)
    attributes = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    taken |= {(node.value.id, node.attr) for node in attributes}
    # a library module imported whole is only ever used as `module.name`
    bare = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in modules]
    assert len(bare) == len(attributes)
    assert taken <= ORACLE_IMPORTS, taken - ORACLE_IMPORTS


@pytest.mark.parametrize(
    "name, dims",
    [
        ("cube_monotone_tables", (-1, 1)),
        ("interval_hom_tables", (-1, 1)),
        ("monotone_bijection_tables", (-1,)),
        ("generator_closure", (-1, 0)),
        ("epi_closure", (0, -2)),
        ("transposition_closure", (-1,)),
    ],
)
def test_table_enumerators_reject_negative_dimensions(name, dims):
    with pytest.raises(CubeError, match="nonnegative"):
        getattr(oracle, name)(*dims)


def test_homotopy_graph_point_into_arrow_nerve():
    B = spaces.point()
    C = cat.nerve(cat.arrow_cat(), 2)
    maps, edges = oracle.homotopy_graph(B, C)
    assert len(maps) == 2
    assert len(edges) == 1


def test_homotopy_graph_point_into_two_points():
    B = spaces.point()
    C = cat.nerve(cat.discrete_cat(2), 2)
    maps, edges = oracle.homotopy_graph(B, C)
    assert len(maps) == 2
    assert len(edges) == 0


def test_homotopy_graph_edge_into_arrow_nerve():
    B = spaces.edge()
    C = cat.nerve(cat.arrow_cat(), 2)
    maps, edges = oracle.homotopy_graph(B, C)
    assert len(maps) == 3
    # all three maps land in one component, joined by a spanning tree
    assert _components(3, edges) == [(0, 1, 2)]
    assert len(edges) == 2


def test_enumerated_functions_validate():
    B = spaces.edge()
    C = cat.nerve(cat.zmod(2), 2)
    for f in oracle.enumerate_cubical_functions(B, C):
        f.validate()


def test_budget_exceeded_is_reported():
    B = spaces.cube_space(2)
    C = cat.nerve(cat.zmod(4), 2)
    with pytest.raises(BudgetExceeded):
        oracle.homotopy_graph(B, C, budget=50)


def _components(n, edges):
    """The partition of range(n) that the edges join, as sorted tuples."""
    comp = {i: {i} for i in range(n)}
    for i, j in edges:
        merged = comp[i] | comp[j]
        for k in merged:
            comp[k] = merged
    return sorted({tuple(sorted(c)) for c in comp.values()})


def _homotopy_graph_all_pairs(B, C, b):
    """`homotopy_graph` as it was before it skipped joined pairs: the pinned
    cylinder search on every unordered pair, so the edges are every
    elementary homotopy, each read back through both end inclusions."""
    maps = oracle.enumerate_cubical_functions(B, C, b)
    cyl, incl0, incl1 = cset.cylinder(B)
    levels = range(min(B.trunc, C.trunc) + 1)
    nondeg = [B.nondegenerate(n) for n in levels]
    end_cells = [[e.maps[n][x] for e in (incl0, incl1) for x in nondeg[n]] for n in levels]
    search = oracle._function_search(cyl, C, b, end_cells)
    pins = [[tuple(f.maps[n][x] for x in nondeg[n]) for n in levels] for f in maps]
    edges = set()
    for i, j in itertools.combinations(range(len(maps)), 2):
        for s, t in ((i, j), (j, i)):
            found = next(search([ps + pt for ps, pt in zip(pins[s], pins[t])]), None)
            if found is not None:
                h = cset.CubicalFunction(cyl, C, found)
                assert [h.compose_after(e).maps for e in (incl0, incl1)] == [
                    maps[s].maps, maps[t].maps
                ]
                edges.add((i, j))
                break
    return maps, edges


def _homotopy_graph_by_cylinder_maps(B, C, b):
    """Reference for `homotopy_graph`: every cubical function out of the
    cylinder, composed with both end inclusions."""
    maps = oracle.enumerate_cubical_functions(B, C, b)
    index = {f.maps: i for i, f in enumerate(maps)}
    cyl, incl0, incl1 = cset.cylinder(B)
    edges = set()
    for h in oracle.enumerate_cubical_functions(cyl, C, b):
        i, j = index[h.compose_after(incl0).maps], index[h.compose_after(incl1).maps]
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return maps, edges


def _random_quotient(rng, n, collapse=0.3):
    """The n-cube glued along one to three random pairs of its faces, by the
    recipe of tests/test_cset.py: the second cell of a pair may be
    transposed, or, with probability collapse, a degenerate cell on a face
    of the first."""
    R = cset.representable(n, n)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, n - 1)
        a = rng.choice(R.nondegenerate(d))
        if rng.random() < collapse:
            face = R.faces[(d, rng.randint(1, d), rng.randint(0, 1))][a]
            b = R.degens[(d - 1, rng.randint(1, d))][face]
        else:
            b = rng.choice(R.nondegenerate(d))
            if d > 1 and rng.random() < 0.5:
                b = R.transps[(d, 1)][b]
        pairs.append(((d, a), (d, b)))
    return cset.quotient(R, pairs)[0]


HOMOTOPY_TARGETS = {
    "arrow": cat.arrow_cat,
    "discrete-2": lambda: cat.discrete_cat(2),
    "chain3": lambda: cat.poset_cat([[x <= y for y in range(3)] for x in range(3)]),
    "idem2": cat.idempotent2,
    "Z/2": lambda: cat.zmod(2),
    "Z/3": lambda: cat.zmod(3),
    "Z/4": lambda: cat.zmod(4),
    "S3": cat.sym3,
}
GRID_SPACES = ("point", "edge", "edge_boundary", "cube2", "circle")
GRID_TARGETS = ("arrow", "discrete-2", "Z/2", "Z/3", "Z/4")
CLOSED_TARGETS = ("Z/4", "S3", "discrete-2", "idem2", "chain3")
HOMOTOPY_CASES = (
    # the benchmark and criterion-7 grids
    [(f"{bn}@2", f"{tn}@2") for bn in GRID_SPACES for tn in GRID_TARGETS]
    + [(f"{bn}@2", f"{tn}@2") for bn in ("torus", "klein", "sphere2") for tn in CLOSED_TARGETS]
    # truncation mismatches
    + [("circle@3", "Z/2@2"), ("point@2", "arrow@3"), ("edge@2", "idem2@3")]
    + [(f"quotient {seed}@2", f"{tn}@2") for seed in range(6) for tn in ("Z/2", "arrow")]
)
# (cylinder maps, all pairs, spanning forest) charges; on the torus into
# Z/4, where the 16 maps are joined by no homotopy, the pair searches charge
# more than the cylinder maps, and the forest skips no pair
HOMOTOPY_CHARGES = {
    ("cube2@2", "Z/3@2"): (39_159, 5_767, 567),
    ("cube2@2", "Z/4@2"): (337_652, 40_728, 1_668),
    ("torus@2", "Z/4@2"): (699, 997, 997),
}


@lru_cache(maxsize=None)
def _homotopy_input(space, target):
    name, trunc = space.rsplit("@", 1)
    if name.startswith("quotient"):
        B = _random_quotient(random.Random(int(name.split()[1])), 2)
    else:
        B = spaces.by_name(name, int(trunc))
    tn, tt = target.rsplit("@", 1)
    return B, cat.nerve(HOMOTOPY_TARGETS[tn](), int(tt))


@pytest.mark.parametrize("space, target", HOMOTOPY_CASES)
def test_homotopy_graph_matches_the_cylinder_maps(space, target):
    B, C = _homotopy_input(space, target)
    b, b_ref, b_all = Budget(10**7), Budget(10**7), Budget(10**7)
    maps, edges = oracle.homotopy_graph(B, C, b)
    ref_maps, ref_edges = _homotopy_graph_by_cylinder_maps(B, C, b_ref)
    all_maps, all_edges = _homotopy_graph_all_pairs(B, C, b_all)
    assert [f.maps for f in maps] == [f.maps for f in ref_maps] == [f.maps for f in all_maps]
    assert all_edges == ref_edges
    # a spanning forest of the homotopies: no class merges or splits
    assert edges <= ref_edges
    assert _components(len(maps), edges) == _components(len(maps), ref_edges)
    assert len(edges) == len(maps) - len(_components(len(maps), edges))
    if (space, target) in HOMOTOPY_CHARGES:
        assert (b_ref.used, b_all.used, b.used) == HOMOTOPY_CHARGES[(space, target)]


def test_homotopy_graph_charges_the_pair_searches():
    # a budget that covers the enumeration of the maps is overrun by the
    # searches over the cylinder
    B, C = _homotopy_input("cube2@2", "Z/3@2")
    b = Budget(10**7)
    oracle.enumerate_cubical_functions(B, C, b)
    with pytest.raises(BudgetExceeded):
        oracle.homotopy_graph(B, C, Budget(b.used + 100))


def test_a_homotopy_with_wrong_ends_is_an_internal_error(monkeypatch):
    # a search that ignores its pins finds cylinder maps joining other pairs
    search = oracle._function_search
    monkeypatch.setattr(
        oracle, "_function_search", lambda B, C, b, pinned=None: lambda fixed: search(B, C, b)(None)
    )
    with pytest.raises(oracle.OracleError, match="^internal: "):
        oracle.homotopy_graph(spaces.edge(), cat.nerve(cat.arrow_cat(), 2))


def _scan_enumerate_cubical_functions(B, C, b):
    """Reference for `enumerate_cubical_functions` without the boundary
    index: each representative is tried against every cell of C_n, one
    charge per cell; returns the sorted list of level tuples."""
    trunc = min(B.trunc, C.trunc)
    results = []
    level_data = []
    for n in range(trunc + 1):
        nondeg = set(B.nondegenerate(n))
        root, path, reps = {}, {}, []
        for i in sorted(nondeg):
            if i in root:
                continue
            reps.append(i)
            root[i], path[i] = i, ()
            queue = [i]
            while queue:
                cur = queue.pop()
                for it in range(1, n):
                    mate = B.transps[(n, it)][cur]
                    if mate in nondeg and mate not in root:
                        root[mate] = i
                        path[mate] = path[cur] + (it,)
                        queue.append(mate)
        rep_pos = {r: p for p, r in enumerate(reps)}
        degen_src = {i: B.degeneracy_source(n, i) for i in B.cells(n) if i not in nondeg}
        triggers, immediate, sig = {}, [], None
        if n + 1 <= trunc:
            order = [(i, eps) for i in range(1, n + 2) for eps in (0, 1)]
            sig = {tuple(C.faces[(n + 1, i, e)][y] for i, e in order) for y in C.cells(n + 1)}
            for y in B.nondegenerate(n + 1):
                faces = tuple(B.faces[(n + 1, i, e)][y] for i, e in order)
                deps = {rep_pos[root[f]] for f in faces if f in root}
                if deps:
                    triggers.setdefault(max(deps), []).append(faces)
                else:
                    immediate.append(faces)
        level_data.append((reps, root, path, degen_src, triggers, immediate, sig))

    def extend(maps, n):
        if n > trunc:
            results.append(tuple(tuple(m) for m in maps))
            return
        reps, root, path, degen_src, triggers, immediate, sig = level_data[n]
        values = {i: C.degens[(n - 1, j)][maps[n - 1][x]] for i, (j, x) in degen_src.items()}

        def resolve(i):
            if i not in values:
                v = values[root[i]]
                for it in path[i]:
                    v = C.transps[(n, it)][v]
                values[i] = v
            return values[i]

        def boundary_ok(entries):
            return all(tuple(resolve(f) for f in faces) in sig for faces in entries)

        def assign(pos):
            if pos == len(reps):
                vec = [resolve(i) for i in B.cells(n)]
                for it in range(1, n):
                    tb, tc = B.transps[(n, it)], C.transps[(n, it)]
                    if any(tc[vec[i]] != vec[tb[i]] for i in B.cells(n)):
                        return
                maps.append(vec)
                extend(maps, n + 1)
                maps.pop()
                return
            i = reps[pos]
            for y in C.cells(n):
                b.spend()
                if any(
                    C.faces[(n, di, eps)][y] != maps[n - 1][B.faces[(n, di, eps)][i]]
                    for eps in (0, 1)
                    for di in range(1, n + 1)
                ):
                    continue
                added = [i]
                values[i] = y
                for m in root:
                    if root[m] == i and m not in values:
                        resolve(m)
                        added.append(m)
                if pos not in triggers or boundary_ok(triggers[pos]):
                    assign(pos + 1)
                for m in added:
                    values.pop(m, None)

        if boundary_ok(immediate):
            assign(0)

    extend([], 0)
    return sorted(set(results))


MIN_TRUNC = {
    "point": 0, "edge": 1, "edge_boundary": 1, "circle": 1,
    "cube2": 2, "torus": 2, "klein": 2, "sphere2": 2,
}
CATS = {
    "arrow": (cat.arrow_cat, 3),
    "discrete-2": (lambda: cat.discrete_cat(2), 3),
    "chain3": (lambda: cat.poset_cat([[x <= y for y in range(3)] for x in range(3)]), 3),
    "Z/2": (lambda: cat.zmod(2), 3),
    "Z/3": (lambda: cat.zmod(3), 2),
    "idem2": (cat.idempotent2, 3),
}


@lru_cache(maxsize=None)
def _space(name, trunc, cylinder):
    B = spaces.by_name(name, trunc)
    return cset.cylinder(B)[0] if cylinder else B


@lru_cache(maxsize=None)
def _nerve(name, trunc):
    return cat.nerve(CATS[name][0](), trunc)


def test_boundary_index_matches_the_cell_scan():
    # seeded spaces, their cylinders (below truncation 3, where the tensor
    # is slow) and nerves, truncated independently;
    # an instance the scan cannot finish within 20,000 charges is drawn again
    rng = random.Random(8)
    drawn, used, scanned, skipped = [], 0, 0, 0
    while len(drawn) < 40:
        name = rng.choice(sorted(MIN_TRUNC))
        trunc = rng.randint(MIN_TRUNC[name], 3)
        B = _space(name, trunc, trunc < 3 and rng.random() < 0.3)
        target = rng.choice(sorted(CATS))
        C = _nerve(target, rng.randint(1, CATS[target][1]))
        b_scan = Budget(20_000)
        try:
            expected = _scan_enumerate_cubical_functions(B, C, b_scan)
        except BudgetExceeded:
            skipped += 1
            continue
        b = Budget(20_000)
        got = oracle.enumerate_cubical_functions(B, C, b)
        label = (name, B.sizes, target, C.trunc)
        assert [f.maps for f in got] == expected, label
        assert b.used <= b_scan.used, label
        drawn.append((B.trunc, C.trunc))
        used += b.used
        scanned += b_scan.used
    assert any(tb > tc for tb, tc in drawn) and any(tb < tc for tb, tc in drawn)
    assert (used, scanned, skipped) == (8874, 10352, 1)
