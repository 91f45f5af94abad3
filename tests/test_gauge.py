"""Gauge-fixed group classes against the exhaustive route they replaced.

For a group given as a FinMonoid, `h1` and `hom_classes` enumerate only
the functors that are the unit on a spanning forest (`cat.gauge_classes`).
Before that they enumerated every functor and united the orbits of the
elementary gauges.  `exhaustive` below is a copy of that route, with the
member-pair class table h1 ran on it; GOLDEN_DIGESTS are sha256 digests of
repr((reps, table, functor_count)) recorded with it.  The groups are
relabelled from fixed seeds so that their unit is never label 0; the
spaces include disjoint unions, where the leftover gauge has more than one
component.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from dicube import cat, cset, invariants as inv, sd, spaces, t1
from dicube.config import Budget


def relabelled(M, seed):
    """An isomorphic copy of M, labels shuffled from `seed`, unit not 0."""
    rng = random.Random(seed)
    perm = list(range(M.size))
    rng.shuffle(perm)
    while perm[M.unit] == 0:
        rng.shuffle(perm)
    table = [[0] * M.size for _ in range(M.size)]
    for x in range(M.size):
        for y in range(M.size):
            table[perm[x]][perm[y]] = perm[M.table[x][y]]
    R = cat.FinMonoid(tuple(map(tuple, table)), perm[M.unit])
    R.validate()
    return R


GROUPS = {
    "Z/2": (cat.zmod(2), 1),
    "Z/3": (cat.zmod(3), 2),
    "Z/4": (cat.zmod(4), 3),
    "S3": (cat.sym3(), 4),
    "Z/2xZ/2": (cat.product_monoid(cat.zmod(2), cat.zmod(2)), 5),
}
SPACES = (
    "circle",
    "torus",
    "klein",
    "sphere2",
    "cube2",
    "sd3 circle",
    "sd3 sphere2",
    "edge_boundary",
    "circle+circle",
    "sd3 circle+torus",
)


@lru_cache(maxsize=None)
def space(name):
    if "+" in name:
        a, b = name.split("+")
        return cset.disjoint_union(space(a), space(b))
    if name.startswith("sd3 "):
        return sd.sd3(space(name[4:])).cset
    return spaces.by_name(name)


def exhaustive(P, G):
    """(reps, table, functor_count, unit class, class of each weighting)
    from every functor."""
    functors = cat.enumerate_functors(P, G, 10**8)
    index = {F.gen_map: i for i, F in enumerate(functors)}  # one object
    inverse = [row.index(G.unit) for row in G.table]
    uf = cset.UnionFind(range(len(functors)))
    for i, F in enumerate(functors):
        # the elementary gauge u at object o: e -> u^-1 F(e) at a source o,
        # F(e) u at a target o
        for o in range(P.n_obj):
            for u in range(G.size):
                w = tuple(
                    G.op(G.op(inverse[u] if s == o else G.unit, x), u if t == o else G.unit)
                    for (s, t), x in zip(P.gens, F.gen_map)
                )
                uf.union(i, index[w])
    classes = uf.classes()
    class_of = [None] * len(functors)
    for k, grp in enumerate(classes):
        for i in grp:
            class_of[i] = k
    table = None
    if G.is_commutative():
        rows = [[None] * len(classes) for _ in classes]
        for i, F in enumerate(functors):
            row = rows[class_of[i]]
            for j, H in enumerate(functors):
                k = class_of[index[tuple(map(G.op, F.gen_map, H.gen_map))]]
                assert row[class_of[j]] in (None, k), "class monoid not well defined"
                row[class_of[j]] = k
        table = tuple(map(tuple, rows))
    unit = class_of[index[(G.unit,) * len(P.gens)]]
    reps = tuple(functors[grp[0]].gen_map for grp in classes)
    return reps, table, len(functors), unit, dict(zip(index, class_of))


GOLDEN_DIGESTS = {
    ('circle', 'Z/2'): 'fba68ba8560791cd09f08f79ae271ba1e67a4b0ccf1c9c9aa94de040cc2edbfc',
    ('torus', 'Z/2'): '18c90db7d767586b66394cc03bbf214e157171c21cf276adfc57985d04120838',
    ('klein', 'Z/2'): '18c90db7d767586b66394cc03bbf214e157171c21cf276adfc57985d04120838',
    ('sphere2', 'Z/2'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('cube2', 'Z/2'): '1bfc4e2ea1caa34e283f8c2e9c9226fe14e80ef83e46a06313dde6103fcc555f',
    ('sd3 circle', 'Z/2'): '1a0fddb76b36f14e0c99bebeaa37b267818d9874cc2a289dc7ee543bd95a9f88',
    ('sd3 sphere2', 'Z/2'): '0f6801ea5a406a8bbbc6df4ad32d2ffe27f028094cc7db372052a2795287de4f',
    ('edge_boundary', 'Z/2'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('circle+circle', 'Z/2'): '18c90db7d767586b66394cc03bbf214e157171c21cf276adfc57985d04120838',
    ('sd3 circle+torus', 'Z/2'): 'b6a7d75c62cf0d29911a9b8e7127cc599550da78ed94cb26dea83a58543b9083',
    ('circle', 'Z/3'): 'b2033ba4cf3c0a5947021e22ba5b380a82163be051a7aeb387a17fa4b162d762',
    ('torus', 'Z/3'): 'a590bfb7fb8489a65c793fc932827fca0dc7f5b6d27fdeef8510c5edd00dd6b4',
    ('klein', 'Z/3'): 'f0c8e94421bdbc1d13d7db1826c3cd2ff097efe103196cfe500c3b06d5d6b2f2',
    ('sphere2', 'Z/3'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('cube2', 'Z/3'): '2eaa3f2d3fe301e12aeeb977351a6661c32af348bc99043445254e52f81b66c4',
    ('sd3 circle', 'Z/3'): 'e75ffddc1229723b102a398f76260c9e5bcac8561af35df521186da36f86227f',
    ('sd3 sphere2', 'Z/3'): '4e48df7a4d64cbb50c178e0c844cd4f629af831e90b39de6602ae0be590377a1',
    ('edge_boundary', 'Z/3'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('circle+circle', 'Z/3'): 'a590bfb7fb8489a65c793fc932827fca0dc7f5b6d27fdeef8510c5edd00dd6b4',
    ('sd3 circle+torus', 'Z/3'): '0aac25353797a15652dd9ba4b6564dcbe8b27e22b3b53da500d317124cb33c4a',
    ('circle', 'Z/4'): '33c1db2718b32987d4d9d33f4d2a2d20c09134c356551fce443b928f2dae3b61',
    ('torus', 'Z/4'): '2603d7f187d09bf870bd46cfc644e4de6cb22e751205d4fba176975cb48f212e',
    ('klein', 'Z/4'): '09d20f4ac6b1d861a72d99e009f8d36bc0d9cb368bd96b870e16f4d82870c80d',
    ('sphere2', 'Z/4'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('cube2', 'Z/4'): '89f0328580e1faadd5c453edecb721191f134100bc1ca8afe3d6a578d59f7e91',
    ('sd3 circle', 'Z/4'): 'a190b47d6560061d448daa67d0b20c895bc339f73fb3c07a549a8d88b7a88547',
    ('sd3 sphere2', 'Z/4'): '7c3d133dff60f87f1f7b17244f947748721088b2a8e81fe561df43b899f1535a',
    ('edge_boundary', 'Z/4'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('circle+circle', 'Z/4'): '2603d7f187d09bf870bd46cfc644e4de6cb22e751205d4fba176975cb48f212e',
    ('sd3 circle+torus', 'Z/4'): 'c286ee0842b5b461b4197208dcb264ec3e9509b9b71f51a8383219704f40e9b9',
    ('circle', 'S3'): '2a489a1f7c31e47e03670615113ffa6ff955e5d761bac9270e90616acd143e2f',
    ('torus', 'S3'): 'f15abeb566cba56d472f4965ba3cd2b3d91719a90fa26cc9e205bb002b4ae063',
    ('klein', 'S3'): 'cabadd38954943091823a76a86b2fc5fc444cf811794e396a3ef0b3bdc91c09d',
    ('sphere2', 'S3'): '48e0a2c165936070a0a0201fce20a50750dfbc8dbb2afe7bd271f1ca742d92d8',
    ('cube2', 'S3'): '43df1b7e02339818294077da8be41139746f25493e6f5a22d129bdd80e82d7de',
    ('sd3 circle', 'S3'): 'e49e190c14daf122085c9543264e42e4e860c71d87dbbf1fa40641c5d9511780',
    ('sd3 sphere2', 'S3'): '02c9b2a55886fd1f15f2cccf7ad3273fc68c9769bc71cfcfbb8fc4d0d227fcb7',
    ('edge_boundary', 'S3'): '48e0a2c165936070a0a0201fce20a50750dfbc8dbb2afe7bd271f1ca742d92d8',
    ('circle+circle', 'S3'): '18ba81984334b0c1d3d8e91adbc102ea4a29addffe3cc1d1025ce26e288ed7b4',
    ('sd3 circle+torus', 'S3'): '1f9c76865a9a427c77183ea91666b9c0187f6cbf3cd9789d1963b9bf2bc4cb04',
    ('circle', 'Z/2xZ/2'): '9a2e9e5c8e4f309958d29d58279681c9bf5a447c552ca43a790a31d2dc9374fe',
    ('torus', 'Z/2xZ/2'): 'd87e3a5e12349df160cbd7bc9ac5821ec707a6b4cc9b13f4d1b0c85d03148281',
    ('klein', 'Z/2xZ/2'): 'd87e3a5e12349df160cbd7bc9ac5821ec707a6b4cc9b13f4d1b0c85d03148281',
    ('sphere2', 'Z/2xZ/2'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('cube2', 'Z/2xZ/2'): '89f0328580e1faadd5c453edecb721191f134100bc1ca8afe3d6a578d59f7e91',
    ('sd3 circle', 'Z/2xZ/2'): 'bb4f09c76254f9a39ce3e17609a02fa652d8bc09207ce06f06d26762868d4c45',
    ('sd3 sphere2', 'Z/2xZ/2'): 'c7ade6bb045d11eeba9b5aeff5ed21428a099fc9a46f5539c95e166f2fd28aee',
    ('edge_boundary', 'Z/2xZ/2'): '9ce92a21879b9b067a1db7ede0ebbda60ecd295e9a25051c28217e583eaef2cc',
    ('circle+circle', 'Z/2xZ/2'): 'd87e3a5e12349df160cbd7bc9ac5821ec707a6b4cc9b13f4d1b0c85d03148281',
    ('sd3 circle+torus', 'Z/2xZ/2'): '2d44109fae3c4d6a3a7a6c0c60e43b5ff21f12ebacd59a55f3ea1d0c079a61ab',
}


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("name", SPACES)
def test_gauge_route_matches_the_exhaustive_route(name, group):
    B, G = space(name), relabelled(*GROUPS[group])
    r = inv.h1(B, G, 10**8)
    hc = inv.hom_classes(B, G, 10**8)
    assert r.count == hc.count == len(r.reps)
    P, _ = t1.fundamental_presentation(B)
    assert (r.reps, r.table, hc.functor_count, r.unit) == exhaustive(P, G)[:4]
    key = repr((r.reps, r.table, hc.functor_count))
    assert hashlib.sha256(key.encode()).hexdigest() == GOLDEN_DIGESTS[name, group]


@pytest.mark.parametrize("name", SPACES)
def test_a_group_given_as_a_category_is_gauge_fixed(name):
    for group in GROUPS:
        G = relabelled(*GROUPS[group])
        b_cat, b_monoid = Budget(10**8), Budget(10**8)
        as_cat = inv.hom_classes(space(name), cat.cat_from_monoid(G), b_cat)
        assert as_cat == inv.hom_classes(space(name), G, b_monoid)
        assert b_cat.used == b_monoid.used


def check_gauge_classes(P, G):
    reps, class_of, functor_count = cat.gauge_classes(P, G)
    expected_reps, _, expected_count, _, expected_class = exhaustive(P, G)
    assert (tuple(F.gen_map for F in reps), functor_count) == (expected_reps, expected_count)
    for F in cat.enumerate_functors(P, G):
        assert class_of(F) == expected_class[F.gen_map]


@pytest.mark.parametrize(
    "gens",
    [
        ((0, 0), (1, 1), (0, 1)),  # two blocks, each holding a loop, joined
        ((0, 0), (1, 1), (1, 0), (0, 1)),
        ((1, 2), (0, 1), (0, 2)),  # the smaller block is the source side
        ((0, 0), (2, 1), (0, 2), (0, 2)),
    ],
)
def test_block_merges_match_the_exhaustive_route(gens):
    # conjugation in S3 restricts the gauge of a block that holds a loop,
    # so the least value on a joining generator is not always label 0
    P = cat.CatPresentation(1 + max(map(max, gens)), gens, ())
    check_gauge_classes(P, relabelled(*GROUPS["S3"]))


def test_random_presentations_match_the_exhaustive_route():
    # free presentations on up to 4 objects: blocks of objects merge from
    # either side and close loops before they meet
    rng = random.Random(11)
    groups = [relabelled(*GROUPS[name]) for name in ("S3", "Z/4")]
    for _ in range(60):
        n_obj = rng.randint(1, 4)
        gens = tuple((rng.randrange(n_obj), rng.randrange(n_obj)) for _ in range(rng.randint(0, 4)))
        check_gauge_classes(cat.CatPresentation(n_obj, gens, ()), rng.choice(groups))


def test_gauge_fixing_charges_only_values_tried_off_the_forest():
    # sd3 circle: 3 vertices on a cycle of 3 edges, 2 of them on the
    # forest.  The forest's values give every object, so only the 4 values
    # of the third edge are tried (the index-order search also charged one
    # per vertex, 7); enumerating every functor charged 3 + 4 + 16 + 64.
    b = Budget(10**8)
    assert inv.h1(sd.sd3(spaces.circle()).cset, cat.zmod(4), b, with_table=False).count == 4
    assert b.used == 4
    # sd3 torus: 4^10 functors in 16 classes
    b = Budget(10**8)
    assert inv.h1(sd.sd3(spaces.torus()).cset, cat.zmod(4), b, with_table=False).count == 16
    assert b.used < 1000
