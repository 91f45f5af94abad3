import itertools
import random

import pytest

from dicube import acceptance, cube
from dicube import lattice as lat
from dicube import oracle


def catalog():
    return {
        "[0]": lat.chain(0),
        "[1]": lat.chain(1),
        "[2]": lat.chain(2),
        "[3]": lat.chain(3),
        "[1]^2": lat.boolean(2),
        "[1]^3": lat.boolean(3),
        "[1]x[2]": lat.product(lat.boolean(1), lat.chain(2)),
        "M3": lat.m_lattice(3),
        "M4": lat.m_lattice(4),
        "N5": lat.n5(),
    }


def test_poset_validation():
    with pytest.raises(lat.LatticeError):
        lat.Poset(2, ((True, False), (False, False)))  # not reflexive
    with pytest.raises(lat.LatticeError):
        lat.Poset(2, ((True, True), (True, True)))  # not antisymmetric
    leq = ((True, True, False), (False, True, True), (False, False, True))
    with pytest.raises(lat.LatticeError, match="leq not transitive at 0,1,2"):
        lat.Poset(3, leq)


def _first_intransitive(leq):
    n = len(leq)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if leq[x][y] and leq[y][z] and not leq[x][z]:
                    return f"leq not transitive at {x},{y},{z}"
    return None


def test_poset_reports_first_intransitive_triple():
    rng = random.Random(5)
    seen = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        leq = [[x == y for y in range(n)] for x in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                leq[x][y] = rng.random() < 0.4
        perm = rng.sample(range(n), n)
        leq = tuple(tuple(leq[perm[x]][perm[y]] for y in range(n)) for x in range(n))
        expected = _first_intransitive(leq)
        if expected is None:
            assert lat.Poset(n, leq).size == n
            continue
        seen += 1
        with pytest.raises(lat.LatticeError) as info:
            lat.Poset(n, leq)
        assert str(info.value) == expected
    assert seen > 100


def test_non_lattice_rejected():
    # two incomparable maximal elements: no join
    leq = (
        (True, True, True),
        (False, True, False),
        (False, False, True),
    )
    with pytest.raises(lat.LatticeError):
        lat.lattice_from_leq(leq)


def _lattice_by_all_candidates(leq):
    """Join and meet tables, or the first error, with every upper bound
    checked as the least one: `lattice_from_leq` before it checked only
    the upper bound with the fewest elements below it."""
    n = len(leq)
    join, meet = [], []
    for x in range(n):
        for y in range(n):
            uppers = [z for z in range(n) if leq[x][z] and leq[y][z]]
            least = [z for z in uppers if all(leq[z][w] for w in uppers)]
            if len(least) != 1:
                return f"no join for {x},{y}"
            lowers = [z for z in range(n) if leq[z][x] and leq[z][y]]
            greatest = [z for z in lowers if all(leq[w][z] for w in lowers)]
            if len(greatest) != 1:
                return f"no meet for {x},{y}"
            join.append(least[0])
            meet.append(greatest[0])
    return join, meet


def _random_order(rng, n):
    """A random partial order on n points: a transitively closed random
    DAG, relabelled by a random permutation."""
    rel = [[i == j or (i < j and rng.random() < 0.35) for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    perm = rng.sample(range(n), n)
    return [[rel[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_lattice_from_leq_matches_the_all_candidates_search():
    rng = random.Random(3)
    lattices = 0
    for _ in range(600):
        leq = _random_order(rng, rng.randint(1, 7))
        expected = _lattice_by_all_candidates(leq)
        try:
            L = lat.lattice_from_leq(leq)
        except lat.LatticeError as exc:
            assert str(exc) == expected
            continue
        lattices += 1
        assert [v for row in L.join for v in row] == expected[0]
        assert [v for row in L.meet for v in row] == expected[1]
    assert lattices > 100


def test_covers_match_the_interval_scan():
    for L in (*catalog().values(), lat.subdivide_lattice(lat.boolean(2), 2)):
        expected = [
            (x, y)
            for x in range(L.size)
            for y in range(L.size)
            if x != y and len(lat.interval_elements(L, x, y) if L.leq(x, y) else ()) == 2
        ]
        assert lat.covers(L) == expected


def test_join_meet_laws_on_catalog():
    for name, L in catalog().items():
        rng = range(L.size)
        for x in rng:
            for y in rng:
                assert L.join[x][y] == L.join[y][x]
                assert L.meet[x][y] == L.meet[y][x]
                assert L.meet[x][L.join[x][y]] == x
                assert L.join[x][L.meet[x][y]] == x
        for x, y, z in itertools.product(rng, repeat=3):
            assert L.join[L.join[x][y]][z] == L.join[x][L.join[y][z]]
            assert L.meet[L.meet[x][y]][z] == L.meet[x][L.meet[y][z]]


def test_boolean_interval_counts():
    assert len(lat.boolean_intervals(lat.boolean(2))) == 9
    ivs = lat.boolean_intervals(lat.chain(2))
    assert len(ivs) == 5
    assert lat.boolean_rank(lat.chain(2), 0, 2) is None
    assert len(lat.boolean_intervals(lat.chain(0))) == 1


def test_boolean_intervals_match_the_all_pairs_scan():
    b2 = lat.boolean(2)
    lattices = {
        **acceptance._lattice_catalog(),
        "sd3 [1]^2": lat.subdivide_lattice(b2, 2),
        "sd3 sd3 [1]^2": lat.subdivide_lattice(lat.subdivide_lattice(b2, 2), 2),
        "sd3 [1]^3": lat.subdivide_lattice(lat.boolean(3), 2),
        "M3 x [2]": lat.product(lat.m_lattice(3), lat.chain(2)),
    }
    for name, L in lattices.items():
        scan = [
            (lo, hi, rank)
            for lo in range(L.size)
            for hi in range(L.size)
            if L.leq(lo, hi) and (rank := lat.boolean_rank(L, lo, hi)) is not None
        ]
        found = [(iv.lo, iv.hi, iv.rank) for iv in lat.boolean_intervals(L)]
        assert found == scan, name


def test_interval_span_is_the_atom_join_per_vertex():
    for name, L in acceptance._lattice_catalog().items():
        for lo in range(L.size):
            for hi in range(L.size):
                if not L.leq(lo, hi):
                    continue
                elems = lat.interval_elements(L, lo, hi)
                if not oracle.is_boolean_by_isomorphism(L.poset.leq, elems):
                    assert lat.interval_span(L, lo, hi) is None, (name, lo, hi)
                    continue
                # the atoms of [lo, hi] are the elements covering lo
                atoms = [
                    z for z in elems if z != lo and len(lat.interval_elements(L, lo, z)) == 2
                ]
                expected = []
                for p in cube.points(len(atoms)):
                    elem = lo
                    for bit, a in zip(p, atoms):
                        if bit:
                            elem = L.join[elem][a]
                    expected.append(elem)
                assert lat.interval_span(L, lo, hi) == tuple(expected), (name, lo, hi)


def test_index_inverts_labels():
    for L in (*catalog().values(), lat.subdivide_lattice(lat.boolean(2), 2)):
        assert len(L.index) == L.size
        assert all(L.index[label] == x for x, label in enumerate(L.labels))


def _closure_system(rng, points):
    """The lattice of a random intersection-closed family of subsets of
    `points` points (bitmasks) that contains the full set; non-modular
    lattices such as N5 turn up among them."""
    family = {(1 << points) - 1}
    family.update(rng.randrange(1 << points) for _ in range(rng.randint(1, 2 * points)))
    while more := {a & b for a in family for b in family} - family:
        family |= more
    return lat.lattice_from_labels(family, lambda a, b: a & b == a)



def test_is_distributive_matches_the_triple_identity():
    """Birkhoff's criterion against x & (y | z) == (x & y) | (x & z) on every
    triple, with elements shuffled so that index order is no linear
    extension of the lattice order."""
    rng = random.Random(27)
    non_distributive = 0
    for _ in range(400):
        family = list(_closure_system(rng, rng.randint(1, 5)).labels)
        rng.shuffle(family)
        L = lat.lattice_from_leq([[a & b == a for b in family] for a in family])
        join, meet, elems = L.join, L.meet, range(L.size)
        expected = all(
            meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
            for x, y, z in itertools.product(elems, repeat=3)
        )
        assert L.is_distributive == expected
        non_distributive += not expected
    assert non_distributive > 50

def test_boolean_rank_matches_isomorphism_search():
    rng = random.Random(13)
    randoms = [_closure_system(rng, rng.randint(1, 6)) for _ in range(150)]
    assert any(not lat.is_modular(L) for L in randoms)
    non_boolean = 0
    for L in (*catalog().values(), *randoms):
        for lo in range(L.size):
            for hi in range(L.size):
                if not L.leq(lo, hi):
                    continue
                elems = lat.interval_elements(L, lo, hi)
                if len(elems) > 16:
                    continue
                expected = oracle.is_boolean_by_isomorphism(L.poset.leq, elems)
                assert (lat.boolean_rank(L, lo, hi) is not None) == expected
                non_boolean += not expected
    assert non_boolean > 100


@pytest.mark.parametrize(
    "call",
    [
        lambda L: lat.interval_elements(L, -1, 1),
        lambda L: lat.interval_elements(L, 0, 2),
        lambda L: lat.interval_span(L, -2, 1),
        lambda L: lat.interval_span(L, 0, 2),
        lambda L: lat.boolean_rank(L, 0, 5),
        lambda L: lat.boolean_rank(L, -1, 1),
        lambda L: lat.Interval.of(L, 0, 2),
        lambda L: lat.Interval.of(L, -2, -1),
        lambda L: lat.boolean(-1),
    ],
)
def test_out_of_range_elements_raise_lattice_error(call):
    with pytest.raises(lat.LatticeError):
        call(lat.boolean(1))


def test_subdivide_examples():
    assert lat.lattice_isomorphic(
        lat.subdivide_lattice(lat.boolean(1), 1), lat.chain(2)
    )
    assert lat.lattice_isomorphic(lat.subdivide_lattice(lat.chain(2), 1), lat.chain(4))
    sd3sq = lat.subdivide_lattice(lat.boolean(2), 2)
    assert sd3sq.size == 16
    assert lat.lattice_isomorphic(sd3sq, lat.product(lat.chain(3), lat.chain(3)))


def test_lattice_isomorphic_returns_an_isomorphism():
    # [3]x[3] with its elements shuffled: (i, j) and (j, i) share their
    # up- and down-degrees, so only the order checks pick an isomorphism
    grid = lat.product(lat.chain(3), lat.chain(3))
    perm = list(range(16))
    random.Random(3).shuffle(perm)
    leq = [[None] * 16 for _ in range(16)]
    for x in range(16):
        for y in range(16):
            leq[perm[x]][perm[y]] = grid.leq(x, y)
    for A, B in ((lat.subdivide_lattice(lat.boolean(2), 2), grid), (grid, lat.lattice_from_leq(leq))):
        iso = lat.lattice_isomorphic(A, B)
        assert sorted(iso) == list(range(16))
        assert all(A.leq(x, y) == B.leq(iso[x], iso[y]) for x in range(16) for y in range(16))


def test_subdivide_lattice_keeps_the_chains_in_boolean_intervals():
    for name, L in catalog().items():
        if not L.is_distributive:
            continue
        for k in range(4):
            expected = [
                t
                for t in itertools.product(range(L.size), repeat=k + 1)
                if all(L.leq(a, b) for a, b in zip(t, t[1:]))
                and oracle.is_boolean_by_isomorphism(
                    L.poset.leq, lat.interval_elements(L, t[0], t[-1])
                )
            ]
            assert list(lat.subdivide_lattice(L, k).labels) == expected, (name, k)


def test_subdivide_lattice_at_large_k():
    # the 41-tuples of {0, 1} number 2^41; the monotone ones are 42
    L = lat.subdivide_lattice(lat.boolean(1), 40)
    assert L.labels == tuple((0,) * (41 - i) + (1,) * i for i in range(42))
    assert lat.lattice_isomorphic(L, lat.chain(41)) is not None


def test_subdivide_rejects_non_distributive():
    with pytest.raises(lat.LatticeError):
        lat.subdivide_lattice(lat.m_lattice(3), 1)


def test_subdivide_identity_at_zero():
    for name, L in catalog().items():
        if not L.is_distributive:
            continue
        copy = lat.subdivide_lattice(L, 0)
        assert lat.lattice_isomorphic(copy, L)


def test_subdivision_composition():
    for L in (lat.boolean(1), lat.chain(2), lat.boolean(2)):
        twice = lat.subdivide_lattice(lat.subdivide_lattice(L, 2), 2)
        nine = lat.subdivide_lattice(L, 8)
        assert lat.lattice_isomorphic(twice, nine)
    # and in general: (k+1)(m+1)-fold equals the composite
    for L in (lat.boolean(1), lat.chain(2)):
        for k in range(3):
            for m in range(3):
                comp = lat.subdivide_lattice(lat.subdivide_lattice(L, k), m)
                direct = lat.subdivide_lattice(L, (k + 1) * (m + 1) - 1)
                assert lat.lattice_isomorphic(comp, direct)


def test_diamond_examples():
    b2 = lat.boolean(2)
    x = b2.labels.index((1, 0))
    y = b2.labels.index((0, 1))
    assert lat.diamond_check(b2, x, y)
    m3 = lat.m_lattice(3)
    assert lat.diamond_check(m3, 1, 2)
    n5 = lat.n5()
    assert not all(
        lat.diamond_check(n5, x, y) for x in range(5) for y in range(5)
    )


def test_diamond_characterizes_modularity():
    for name, L in catalog().items():
        all_true = all(
            lat.diamond_check(L, x, y)
            for x in range(L.size)
            for y in range(L.size)
        )
        assert all_true == lat.is_modular(L), name


def test_profile_examples():
    assert lat.distributivity_profile(lat.boolean(3)) == (True, True, True)
    assert lat.distributivity_profile(lat.m_lattice(3)) == (False, False, False)
    assert lat.distributivity_profile(lat.n5()) == (False, False, False)
    assert lat.distributivity_profile(lat.m_lattice(6)) == (False, False, False)


def test_profile_agreement_on_catalog():
    for name, L in catalog().items():
        b1, b2, b3 = lat.distributivity_profile(L)
        assert b1 == b2 == b3, name


def test_boolean_interval_images_chain():
    c3 = lat.chain(3)
    I = lat.Interval.of(c3, 0, 1)
    J = lat.Interval.of(c3, 1, 2)
    join_iv, meet_iv = lat.boolean_interval_images(c3, I, J)
    assert join_iv.elements == (1, 2)
    assert meet_iv.elements == (0, 1)


def test_boolean_interval_images_square():
    b2 = lat.boolean(2)
    whole = lat.Interval.of(b2, 0, 3)
    join_iv, meet_iv = lat.boolean_interval_images(b2, whole, whole)
    assert join_iv.elements == (0, 1, 2, 3)
    assert meet_iv.elements == (0, 1, 2, 3)
    left = lat.Interval.of(b2, 0, b2.labels.index((0, 1)))
    bottom = lat.Interval.of(b2, 0, b2.labels.index((1, 0)))
    join_iv, meet_iv = lat.boolean_interval_images(b2, left, bottom)
    assert join_iv.elements == (0, 1, 2, 3)
    assert meet_iv.elements == (0,)


def test_json_round_trip():
    for name, L in catalog().items():
        back = lat.from_json(lat.to_json(L))
        assert back.poset.leq == L.poset.leq
        assert back.join == L.join


def test_dot_export_has_cover_edges():
    text = lat.dot_hasse(lat.boolean(2))
    assert text.count("->") == 4
