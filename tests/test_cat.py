import importlib.util
import itertools
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from dicube import cat, cset, invariants as inv, lattice as lat, spaces, t1
from dicube.config import Budget

ROOT = Path(__file__).resolve().parents[1]


def small_monoids():
    return {
        "trivial": cat.trivial_monoid(),
        "z2": cat.zmod(2),
        "z3": cat.zmod(3),
        "z4": cat.zmod(4),
        "z2xz2": cat.product_monoid(cat.zmod(2), cat.zmod(2)),
        "s3": cat.sym3(),
        "idem2": cat.idempotent2(),
        "capped": cat.capped_add(),
    }


def test_monoid_validation():
    for M in small_monoids().values():
        assert M.validate()
    with pytest.raises(cat.CatError):
        cat.FinMonoid(((0, 0), (0, 0)), 0).validate()  # no unit law


def test_cat_validation():
    for S in (cat.arrow_cat(), cat.discrete_cat(3), cat.cat_from_monoid(cat.sym3())):
        assert S.validate()


def test_is_cancellative():
    assert cat.is_cancellative(cat.zmod(4))
    assert not cat.is_cancellative(cat.idempotent2())
    assert not cat.is_cancellative(cat.capped_add())


def test_conjugacy_examples():
    assert len(cat.conjugacy_classes(cat.sym3())[0]) == 3
    for M in (cat.zmod(2), cat.zmod(4), cat.product_monoid(cat.zmod(2), cat.zmod(2))):
        classes, _ = cat.conjugacy_classes(M)
        assert all(len(g) == 1 for g in classes)
    classes, quotient = cat.conjugacy_classes(cat.idempotent2())
    assert len(classes) == 1
    assert quotient.size == 1


def test_conjugacy_quotient_is_cancellative_group():
    for name, M in small_monoids().items():
        if not M.is_commutative():
            continue
        classes, quotient = cat.conjugacy_classes(M)
        assert quotient is not None
        assert cat.is_cancellative(quotient), name
        assert quotient.is_group(), name


def test_nerve_counts():
    assert cat.nerve(cat.terminal_cat(), 2).sizes == (1, 1, 1)
    n1 = cat.nerve(cat.arrow_cat(), 1)
    assert n1.sizes == (2, 3)
    assert len(n1.nondegenerate(1)) == 1
    # one-object group target: one free label per edge, one relation per
    # square, so the square level has |M|^3 cells
    nz2 = cat.nerve(cat.zmod(2), 2)
    assert nz2.sizes == (1, 2, 8)
    # a functor from the connected poset [1]^n into a group is free on the
    # 2^n - 1 edges of a spanning tree
    for k in (2, 3):
        assert cat.nerve(cat.zmod(k), 3).sizes == tuple(k ** (2**n - 1) for n in range(4))
    # monotone maps [1]^n -> [1]: the Dedekind numbers
    assert cat.nerve(cat.arrow_cat(), 3).sizes == (2, 3, 6, 20)


def test_nerve_zmod3_charge():
    # the functor searches of dimensions 0 to 3 charge 1 + 3 + 66 + 8,706;
    # building the tables charges nothing
    b = Budget(10**6)
    assert cat.nerve(cat.zmod(3), 3, b).sizes == (1, 3, 27, 2187)
    assert b.used == 8_776


def test_cube_functors_rejects_a_square_that_does_not_commute(monkeypatch):
    # one edge of the square goes to the generator of Z/2 and the other
    # three to the unit, so the two paths around the square disagree
    P, _, _ = cat._cube_t1(2)
    bad = cat.Functor((0,) * P.n_obj, (1,) + (0,) * (len(P.gens) - 1))
    monkeypatch.setattr(cat, "enumerate_functors", lambda P, S, budget=None, fixed=None: [bad])
    with pytest.raises(cat.CatError, match="comparable triple"):
        cat.cube_functors(cat.zmod(2), 2)


def test_nerve_validates():
    for S in (cat.arrow_cat(), cat.discrete_cat(2), cat.cat_from_monoid(cat.zmod(3))):
        assert cat.nerve(S, 2).validate()


def test_nerve_functorial():
    z2, z4 = cat.zmod(2), cat.zmod(4)
    # the doubling homomorphism z2 -> z4
    obj_map = (0,)
    mor_map = (0, 2)
    n2 = cat.nerve(z2, 2)
    n4 = cat.nerve(z4, 2)
    f = cat.nerve_map(obj_map, mor_map, z2, z4, n2, n4)
    assert f.validate()


def test_nerve_map_rejects_a_non_functor():
    z2, z4 = cat.zmod(2), cat.zmod(4)
    n2, n4 = cat.nerve(z2, 2), cat.nerve(z4, 2)
    # 1 + 1 = 0 in Z/2 but 1 + 1 = 2 in Z/4
    with pytest.raises(cat.CatError):
        cat.nerve_map((0,), (0, 1), z2, z4, n2, n4)
    # the identity of Z/2 must go to the identity of Z/4
    with pytest.raises(cat.CatError):
        cat.nerve_map((0,), (2, 0), z2, z4, n2, n4)
    # the target nerve must be the nerve of the target category
    with pytest.raises(cat.CatError):
        cat.nerve_map((0,), (0, 2), z2, z4, n2, n2)


def test_enumerate_functors_commuting_pair():
    P = cat.CatPresentation(1, ((0, 0), (0, 0)), (((0, 1), (1, 0)),))
    assert len(cat.enumerate_functors(P, cat.zmod(4))) == 16


def test_enumerate_functors_equal_squares():
    P = cat.CatPresentation(1, ((0, 0), (0, 0)), (((0, 0), (1, 1)),))
    fs = cat.enumerate_functors(P, cat.zmod(4))
    assert len(fs) == 8
    z4 = cat.zmod(4)
    for F in fs:
        a, b = F.gen_map
        assert z4.table[a][a] == z4.table[b][b]


def test_enumerate_functors_into_poset():
    from dicube import spaces, t1

    P, _ = t1.fundamental_presentation(spaces.cube_space(2))
    assert len(cat.enumerate_functors(P, cat.arrow_cat())) == 6


def test_enumerate_functors_deterministic():
    P = cat.CatPresentation(1, ((0, 0), (0, 0)), ())
    once = cat.enumerate_functors(P, cat.zmod(2))
    twice = cat.enumerate_functors(P, cat.zmod(2))
    assert once == twice


def test_homotopy_classes_arrow_target():
    # all three endomaps of the arrow poset are connected by transformations
    P = cat.CatPresentation(2, ((0, 1),), ())
    classes, _, count = cat.functor_homotopy_classes(P, cat.arrow_cat())
    assert (len(classes), count) == (1, 3)


def test_homotopy_classes_abelian_rigidity():
    P = cat.CatPresentation(1, ((0, 0), (0, 0)), (((0, 1), (1, 0)),))
    classes, _, count = cat.functor_homotopy_classes(P, cat.zmod(4))
    assert (len(classes), count) == (16, 16)


def test_homotopy_classes_discrete():
    P = cat.CatPresentation(2, (), ())
    classes, _, count = cat.functor_homotopy_classes(P, cat.discrete_cat(2))
    assert (len(classes), count) == (4, 4)


def test_group_fast_path_matches_generic():
    z4 = cat.zmod(4)
    for P in (
        cat.CatPresentation(1, ((0, 0), (0, 0)), (((0, 0), (1, 1)),)),
        # a triangle with a chord and an isolated object: c = 2 components
        cat.CatPresentation(4, ((0, 1), (1, 2), (0, 2), (2, 0)), (((0, 1), (2,)),)),
    ):
        for S in (z4, cat.cat_from_monoid(z4)):
            _, class_of = assert_classes_match_the_pairwise_reference(P, S)
            # (0, 1, 0, ...) breaks the relation of either presentation
            assert class_of(cat.Functor((0,) * P.n_obj, (0, 1) + (0,) * (len(P.gens) - 2))) is None


def relabelled_cat(S, rng):
    """An isomorphic copy of S, objects and morphisms shuffled, with the
    two permutations."""
    S = cat.as_cat(S)
    obj, mor, n = list(range(S.n_obj)), list(range(S.n_mor)), S.n_mor
    rng.shuffle(obj)
    rng.shuffle(mor)
    src, tgt, ident, comp = [None] * n, [None] * n, [None] * S.n_obj, [[None] * n for _ in range(n)]
    for f in range(n):
        src[mor[f]], tgt[mor[f]] = obj[S.src[f]], obj[S.tgt[f]]
        for g, h in enumerate(S.comp[f]):
            if h is not None:
                comp[mor[f]][mor[g]] = mor[h]
    for x in range(S.n_obj):
        ident[obj[x]] = mor[S.ident[x]]
    R = cat.FinCat(S.n_obj, tuple(src), tuple(tgt), tuple(ident), tuple(map(tuple, comp)))
    R.validate()
    return R, obj, mor


def functor_partition(P, S):
    """The functor count and the classes of every enumerated functor P -> S,
    read through the classifier's class_of, as a set of frozensets."""
    _, class_of, count = cat.functor_homotopy_classes(P, S)
    blocks = {}
    for F in cat.enumerate_functors(P, S):
        blocks.setdefault(class_of(F), set()).add(F)
    assert None not in blocks
    return count, {frozenset(block) for block in blocks.values()}


def test_homotopy_classes_relabeling_invariant():
    # relabelling the target relabels the classes, on both routes
    rng = random.Random(7)
    bowtie = [[x == y or (x < 2 <= y) for y in range(4)] for x in range(4)]
    for base in ("circle", "torus", "cube2"):
        P, _ = t1.fundamental_presentation(spaces.by_name(base))
        for S in (cat.sym3(), cat.zmod(4), cat.idempotent2(), cat.capped_add(), cat.poset_cat(bowtie)):
            R, obj, mor = relabelled_cat(S, rng)
            count, blocks = functor_partition(P, S)
            image = lambda F: cat.Functor(tuple(obj[x] for x in F.obj_map), tuple(mor[f] for f in F.gen_map))
            assert functor_partition(P, R) == (count, {frozenset(map(image, block)) for block in blocks})


def test_based_rigidity():
    # a zig-zag whose components are all identities forces equality
    P = cat.CatPresentation(1, ((0, 0),), ())
    s3 = cat.sym3()
    fs = cat.enumerate_functors(P, s3)
    for F in fs:
        for G in fs:
            if F == G:
                continue
            # the identity tuple is natural only between equal functors
            e = s3.unit
            natural = all(
                s3.table[F.gen_map[g]][e] == s3.table[e][G.gen_map[g]]
                for g in range(len(P.gens))
            )
            assert not natural


def test_nat_trans_direction_matters():
    # for the arrow target, a transformation exists iff values only grow
    P = cat.CatPresentation(1, (), ())
    S = cat.arrow_cat()
    lo = cat.Functor((0,), ())
    hi = cat.Functor((1,), ())
    assert cat.nat_trans_exists(P, S, lo, hi)
    assert not cat.nat_trans_exists(P, S, hi, lo)


def test_fixed_values_must_fit_their_hom_sets():
    P = cat.CatPresentation(2, ((0, 1),), ())
    S = cat.arrow_cat()  # morphisms 0: 0 -> 0, 1: 0 -> 1, 2: 1 -> 1
    b = Budget(100)
    pinned = cat.Functor((None, None), (1,))
    assert cat.enumerate_functors(P, S, b, pinned) == [cat.Functor((0, 1), (1,))]
    # the fixed arrow's ends are both objects, so no value is tried (the
    # index-order search tried 2 + 2 * 2 object values)
    assert b.used == 0
    assert cat.enumerate_functors(P, S, fixed=cat.Functor((None, 0), (None,))) == [
        cat.Functor((0, 0), (0,))
    ]
    for fixed in (
        cat.Functor((1, None), (1,)),  # the arrow does not start at 1
        cat.Functor((None, None), (3,)),  # no such morphism
        cat.Functor((None, 2), (None,)),  # no such object
    ):
        assert cat.enumerate_functors(P, S, fixed=fixed) == []
    with pytest.raises(cat.CatError):
        cat.enumerate_functors(P, S, fixed=cat.Functor((None,), (None,)))


def test_presentation_of_a_category():
    # functors out of presentation_of(S) are the functors out of S
    arrow = cat.arrow_cat()
    assert len(cat.enumerate_functors(cat.presentation_of(arrow), arrow)) == 3
    homs = cat.enumerate_functors(cat.presentation_of(cat.zmod(2)), cat.zmod(4))
    assert [F.gen_map for F in homs] == [(0, 0), (0, 2)]


def test_cylinder_presentation_layout():
    P = cat.CatPresentation(2, ((0, 0), (0, 1)), (((0, 1), (1,)),))
    assert cat.cylinder_presentation(P) == cat.CatPresentation(
        4,
        ((0, 0), (0, 1), (2, 2), (2, 3), (0, 2), (1, 3)),
        (
            ((0, 1), (1,)),
            ((2, 3), (3,)),
            ((0, 4), (4, 2)),
            ((1, 5), (4, 3)),
        ),
    )


def componentwise_nat_trans_exists(P, S, F, G, budget):
    """The componentwise search nat_trans_exists ran before it became a
    search out of the cylinder presentation: components in object order,
    each generator's square checked once both its ends have one."""
    S = cat.as_cat(S)
    gens_at = {o: [] for o in range(P.n_obj)}
    for gi, (s, t) in enumerate(P.gens):
        gens_at[s].append((gi, s, t))
        gens_at[t].append((gi, s, t))

    def rec(x, comps):
        if x == P.n_obj:
            return True
        hom = (F.obj_map[x], G.obj_map[x])
        for u in [f for f in range(S.n_mor) if (S.src[f], S.tgt[f]) == hom]:
            budget.spend()
            comps[x] = u
            if all(
                S.comp[F.gen_map[gi]][comps[t]] == S.comp[comps[s]][G.gen_map[gi]]
                for gi, s, t in gens_at[x]
                if s in comps and t in comps
            ) and rec(x + 1, comps):
                return True
            del comps[x]
        return False

    return rec(0, {})


def random_presentation(rng):
    """Up to 4 objects and 4 generators, loops and isolated objects
    included, with up to two relations between paths from one object."""
    n_obj = rng.randint(1, 4)
    gens = tuple((rng.randrange(n_obj), rng.randrange(n_obj)) for _ in range(rng.randint(0, 4)))

    def walk(at, length):
        word = []
        for _ in range(length):
            out = [g for g, (s, _) in enumerate(gens) if s == at]
            if not out:
                break
            word.append(rng.choice(out))
            at = gens[word[-1]][1]
        return tuple(word), at

    relations = []
    for _ in range(rng.randint(0, 2)):
        start = rng.randrange(n_obj)
        (w1, end1), (w2, end2) = walk(start, rng.randint(1, 2)), walk(start, rng.randint(0, 2))
        if end1 == end2 and w1 + w2:
            relations.append((w1, w2))
    P = cat.CatPresentation(n_obj, gens, tuple(relations))
    P.validate()
    return P


def test_nat_trans_exists_matches_the_componentwise_search():
    rng = random.Random(17)
    targets = [
        cat.arrow_cat(),
        cat.poset_cat(lat.chain(3).poset.leq),
        cat.poset_cat(lat.boolean(2).poset.leq),
        cat.discrete_cat(2),
        cat.idempotent2(),
        cat.capped_add(),
        cat.cat_from_monoid(cat.sym3()),
    ]
    answers, charged = [], (0, 0)
    shapes = set()
    for _ in range(60):
        P = random_presentation(rng)
        shapes.add((
            any(s == t for s, t in P.gens),
            len({o for e in P.gens for o in e}) < P.n_obj,
            bool(P.relations),
        ))
        for S in targets:
            functors = cat.enumerate_functors(P, S, 10**6)
            for _ in range(20 if functors else 0):
                F, G = rng.choice(functors), rng.choice(functors)
                b1, b2 = Budget(10**6), Budget(10**6)
                found = cat.nat_trans_exists(P, S, F, G, b1)
                assert found == componentwise_nat_trans_exists(P, S, F, G, b2)
                assert b1.used <= b2.used
                answers.append(found)
                charged = (charged[0] + b1.used, charged[1] + b2.used)
    # loops, isolated objects and relations each occur, and both answers
    assert all(any(shape[k] for shape in shapes) for k in range(3))
    assert True in answers and False in answers
    # over the 8,400 calls: the search out of the cylinder, then the
    # componentwise search (which the cylinder search matched call by call
    # while it took the rungs in object order)
    assert charged == (21030, 46672)


def test_nat_trans_exists_solves_a_naturality_square():
    # g: 0 -> 1 into S3 (morphism 0 the unit), F(g) = 0 and G(g) = 5.  Both
    # rungs have 6 candidates, so rung 0 comes first and takes the unit (1
    # charge); the square F(g);u1 = u0;G(g) then forces u1 = 5 (1 charge).
    # The componentwise search tried u1 = 0, ..., 5 after u0 (7 charges).
    P = cat.CatPresentation(2, ((0, 1),), ())
    S3 = cat.sym3()
    F, G = cat.Functor((0, 0), (0,)), cat.Functor((0, 0), (5,))
    b1, b2 = Budget(100), Budget(100)
    assert cat.nat_trans_exists(P, S3, F, G, b1)
    assert componentwise_nat_trans_exists(P, S3, F, G, b2)
    assert (b1.used, b2.used) == (2, 7)


def index_order_functors(P, S, fixed):
    """The search enumerate_functors ran before it propagated: objects in
    index order, then generators, each relation checked once its last
    generator is set; functors in the order found."""
    S, n = cat.as_cat(S), P.n_obj
    checks = {}
    for w1, w2 in P.relations:
        src = P.gens[(w1 + w2)[0]][0] if w1 + w2 else 0
        checks.setdefault(max(w1 + w2, default=-1), []).append((src, w1, w2))
    pins, row, out = fixed.obj_map + fixed.gen_map, [], []

    def holds(src, w1, w2):
        f = g = S.ident[row[src]]
        for x in w1:
            f = S.comp[f][row[n + x]]
        for x in w2:
            g = S.comp[g][row[n + x]]
        return f == g

    def assign(i):
        if i == len(pins):
            out.append(cat.Functor(tuple(row[:n]), tuple(row[n:])))
            return
        if i < n:
            values = range(S.n_obj)
        else:
            s, t = P.gens[i - n]
            values = [f for f in range(S.n_mor) if (S.src[f], S.tgt[f]) == (row[s], row[t])]
        for f in values if pins[i] is None else [pins[i]] if pins[i] in values else ():
            row.append(f)
            if all(holds(*c) for c in checks.get(i - n, ())):
                assign(i + 1)
            row.pop()

    assign(0)
    return out


def test_enumerate_functors_matches_the_index_order_search():
    rng = random.Random(29)
    targets = [
        cat.arrow_cat(),
        cat.poset_cat(lat.chain(3).poset.leq),
        cat.poset_cat(lat.boolean(2).poset.leq),
        cat.discrete_cat(2),
        cat.idempotent2(),
        cat.capped_add(),
        cat.sym3(),
        cat.zmod(4),
    ]
    shapes, partial = set(), []
    for _ in range(200):
        P = random_presentation(rng)
        shapes.add((
            any(s == t for s, t in P.gens),
            len({o for e in P.gens for o in e}) < P.n_obj,
            bool(P.relations),
        ))
        for S in targets:
            C = cat.as_cat(S)
            free = cat.Functor((None,) * P.n_obj, (None,) * len(P.gens))
            functors = cat.enumerate_functors(P, S, 10**6)
            assert functors == index_order_functors(P, S, free)
            # a partial functor: entries of a functor, or any values, some out of range
            model = rng.choice(functors) if functors and rng.random() < 0.7 else None
            obj = [
                None if rng.random() < 0.5 else model.obj_map[v] if model else rng.randrange(C.n_obj + 1)
                for v in range(P.n_obj)
            ]
            gen = [
                None if rng.random() < 0.5 else model.gen_map[g] if model else rng.randrange(C.n_mor + 1)
                for g in range(len(P.gens))
            ]
            fixed = cat.Functor(tuple(obj), tuple(gen))
            found = cat.enumerate_functors(P, S, 10**6, fixed)
            assert found == index_order_functors(P, S, fixed)
            partial.append(bool(found))
    # loops, isolated objects and relations each occur; partial functors
    # with functors and without
    assert all(any(shape[k] for shape in shapes) for k in range(3))
    assert True in partial and False in partial


def test_forced_letters_are_charged():
    # t1 of the square into Z/4: gens 0, 1, 2 take 4, 16 and 64 values, and
    # the square then forces gen 3 in each of the 64 branches.  The
    # index-order search charged 4 objects, then 4 + 16 + 64 + 256.
    P = cat.CatPresentation(4, ((0, 1), (0, 2), (1, 3), (2, 3)), (((0, 2), (1, 3)),))
    b = Budget(10**6)
    assert len(cat.enumerate_functors(P, cat.zmod(4), b)) == 64
    assert b.used == 4 + 16 + 64 + 64


def test_untouched_objects_are_tried_last():
    # into the chain 0 < 1 < 2 < 3 (10 morphisms): g takes its 10 values,
    # g = h forces h in each branch, and then object 2, which no generator
    # touches, takes its 4 values in each of the 10 branches.  Trying
    # object 2 first would charge 4 + 4 * (10 + 10).
    P = cat.CatPresentation(3, ((0, 1), (0, 1)), (((0,), (1,)),))
    chain = cat.poset_cat(lat.chain(3).poset.leq)
    b = Budget(10**6)
    assert len(cat.enumerate_functors(P, chain, b)) == 10 * 4
    assert b.used == 10 + 10 + 10 * 4


def test_a_monoid_category_is_built_once():
    M = cat.capped_add()
    assert cat.as_cat(M) is cat.as_cat(M)


def test_joined_pairs_are_not_searched_again():
    # the four constant functors into the chain 0 < 1 < 2 < 3, one value
    # charged each: the pairs (0, j) join everything, one pair charge and
    # one rung each, and the other three pairs are skipped
    P = cat.CatPresentation(1, (), ())
    chain = cat.poset_cat(lat.chain(3).poset.leq)
    b = Budget(100)
    classes, _, _ = cat.functor_homotopy_classes(P, chain, b)
    assert classes == [cat.enumerate_functors(P, chain)]
    assert b.used == 4 + 3 + 3


def test_a_target_that_is_not_a_group_prepares_one_enumeration_and_one_walk(monkeypatch):
    prepared, prepare = [], cat._prepare

    def counted(P, S, pattern):
        prepared.append(P)
        return prepare(P, S, pattern)

    monkeypatch.setattr(cat, "_prepare", counted)
    assert inv.hom_classes(spaces.torus(), cat.idempotent2()).functor_count > 1
    assert len(prepared) == 2


def pairwise_classes(P, S, functors, budget):
    """The classifier as it was before its cylinder search was prepared
    once: every pair i < j in lexicographic order, skipped when two `find`
    calls show it joined, else charged one and decided by
    `nat_trans_exists` in both directions."""
    uf = cset.UnionFind(range(len(functors)))
    for (i, F), (j, G) in itertools.combinations(enumerate(functors), 2):
        if uf.find(i) != uf.find(j):
            budget.spend()
            if cat.nat_trans_exists(P, S, F, G, budget) or cat.nat_trans_exists(P, S, G, F, budget):
                uf.union(i, j)
    return uf.classes()


def assert_classes_match_the_pairwise_reference(P, S):
    """The classifier against `pairwise_classes` over the full enumeration.
    Each functor's class_of is the index of its reference class, and each
    class is listed from its reference class's first member on.  Into a
    group the gauge route lists only that member; into any other target
    the classes and the charges are the reference's.  Returns the classes
    and class_of."""
    b, b_ref = Budget(10**8), Budget(10**8)
    classes, class_of, count = cat.functor_homotopy_classes(P, S, b)
    functors = cat.enumerate_functors(P, S, b_ref)
    reference = [[functors[i] for i in js] for js in pairwise_classes(P, S, functors, b_ref)]
    assert count == len(functors)
    assert [class_of(F) for F in functors] == [k for F in functors for k, js in enumerate(reference) if F in js]
    M = cat.as_monoid(S)
    if M is not None and M.is_group():
        assert classes == [js[:1] for js in reference]
    else:
        assert classes == reference
        assert b.used == b_ref.used
    return classes, class_of


@lru_cache(maxsize=None)
def benchmark_workloads():
    """perfbench/workloads.py as a module."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def zigzag_classifications(seed):
    """(P, S) of every classification the benchmark's zigzag workload
    makes, its targets relabelled from `seed`."""
    workloads = benchmark_workloads()
    calls, classify = [], cat.functor_homotopy_classes

    def record(P, S, budget=None):
        calls.append((P, S))
        return classify(P, S, budget)

    cat.functor_homotopy_classes = record
    try:
        for job in workloads.zigzag(random.Random(seed)):
            job.run(Budget(workloads.JOB_BUDGET))
    finally:
        cat.functor_homotopy_classes = classify
    return calls


@pytest.mark.parametrize("seed", [1, 2])
def test_classes_match_the_pairwise_reference_on_the_zigzag_workload(seed):
    calls = zigzag_classifications(seed)
    assert calls
    for P, S in calls:
        assert_classes_match_the_pairwise_reference(P, S)


@pytest.mark.parametrize("target", ["arrow", "discrete-2", "zmod2", "zmod4"])
@pytest.mark.parametrize("base", ["point", "edge", "edge_boundary", "cube2", "circle"])
def test_classes_match_the_pairwise_reference_on_the_criterion_7_grid(base, target):
    P, _ = t1.fundamental_presentation(spaces.by_name(base))
    named = {"arrow": cat.arrow_cat, "discrete-2": lambda: cat.discrete_cat(2)}
    S = cat.as_cat(named[target]() if target in named else cat.monoid_by_name(target))
    assert_classes_match_the_pairwise_reference(P, S)


def test_classes_match_the_pairwise_reference_on_random_presentations():
    # relabelled targets; Z/3 x idem2 is no group and has several classes
    # of several members, so rows meet such classes, some of them joined
    # along the row.  The reference is quadratic in the functors, so only
    # enumerations of at most 30 functors are compared.
    rng = random.Random(29)
    fence = [[x == y or (x, y) in {(0, 1), (2, 1), (2, 3), (4, 3)} for y in range(5)] for x in range(5)]
    bowtie = [[x == y or (x < 2 <= y) for y in range(4)] for x in range(4)]
    targets = [cat.poset_cat(fence), cat.poset_cat(bowtie), cat.discrete_cat(2), cat.arrow_cat()]
    targets += [cat.idempotent2(), cat.capped_add(), cat.zmod(3)]
    targets += [cat.product_monoid(cat.zmod(3), cat.idempotent2())]
    shapes = []
    for _ in range(25):
        P = random_presentation(rng)
        for S in targets:
            R, _, _ = relabelled_cat(S, rng)
            if len(cat.enumerate_functors(P, R)) <= 30:
                classes, _ = assert_classes_match_the_pairwise_reference(P, R)
                shapes.append((len(classes), max(map(len, classes), default=0)))
    assert len(shapes) > 100
    assert any(count > 2 and largest > 1 for count, largest in shapes)


@pytest.mark.parametrize("k", [0, -2])
def test_zmod_of_an_order_below_one_raises_cat_error(k):
    with pytest.raises(cat.CatError, match=f"^zmod needs an order k >= 1, got {k}$"):
        cat.zmod(k)


def test_discrete_cat_of_a_negative_size_names_it():
    with pytest.raises(cat.CatError, match="^discrete_cat needs a size n >= 0, got -1$"):
        cat.discrete_cat(-1)
    assert cat.discrete_cat(0).n_obj == 0


def test_monoid_isomorphic():
    z4 = cat.zmod(4)
    klein4 = cat.product_monoid(cat.zmod(2), cat.zmod(2))
    assert cat.monoid_isomorphic(z4, klein4) is None
    assert cat.monoid_isomorphic(z4, z4) is not None
    relabeled = cat.monoid_from_op(
        [3, 1, 0, 2], lambda a, b: (a + b) % 4, 0
    )
    assert cat.monoid_isomorphic(z4, relabeled) is not None


def test_monoid_isomorphic_returns_an_isomorphism():
    # the element profiles agree under any relabelling, so only the product
    # checks tell an isomorphism from the other profile-preserving bijections
    rng = random.Random(5)
    for elements, op, unit in (
        (list(range(4)), lambda x, y: (x + y) % 4, 0),
        (
            [(a, b) for a in range(4) for b in range(4)],
            lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % 4),
            (0, 0),
        ),
        (sorted(itertools.permutations(range(3))), lambda x, y: tuple(y[i] for i in x), (0, 1, 2)),
    ):
        A = cat.monoid_from_op(elements, op, unit)
        rng.shuffle(elements)
        B = cat.monoid_from_op(elements, op, unit)
        iso = cat.monoid_isomorphic(A, B)
        assert sorted(iso) == list(range(A.size)) and iso[A.unit] == B.unit
        assert all(
            iso[A.table[x][y]] == B.table[iso[x]][iso[y]]
            for x in range(A.size)
            for y in range(A.size)
        )


def test_equal_doubles_pairs():
    ed = cat.equal_doubles_pairs(cat.zmod(4))
    assert ed.size == 8
    ed2 = cat.equal_doubles_pairs(cat.zmod(2))
    assert ed2.size == 4


def test_presentation_validation():
    # a non-composable word
    broken = cat.CatPresentation(2, ((0, 0), (1, 1)), (((0, 1), (0,)),))
    with pytest.raises(cat.CatError):
        broken.validate()
    # relation words with different endpoints
    bad = cat.CatPresentation(2, ((0, 1), (1, 0)), (((0,), (1,)),))
    with pytest.raises(cat.CatError):
        bad.validate()
    # an identity relation against a non-loop word
    nonloop = cat.CatPresentation(2, ((0, 1),), (((0,), ()),))
    with pytest.raises(cat.CatError):
        nonloop.validate()


def test_json_round_trips():
    M = cat.sym3()
    assert cat.monoid_from_json(cat.monoid_to_json(M)) == M
    S = cat.arrow_cat()
    assert cat.cat_from_json(cat.cat_to_json(S)) == S
