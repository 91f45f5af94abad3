import pytest

from dicube import cat, cset, invariants as inv, sd, spaces
from dicube.config import DEFAULT_BUDGET, Budget, BudgetExceeded


def test_pi0_examples():
    for n in range(3):
        assert inv.pi0(spaces.cube_space(n, 2)).count == 1
    assert inv.pi0(spaces.edge_boundary()).count == 2
    assert inv.pi0(spaces.torus()).count == 1
    circ = spaces.circle()
    assert inv.pi0(cset.disjoint_union(circ, circ)).count == 2


def test_h1_torus():
    z4 = cat.zmod(4)
    r = inv.h1(spaces.torus(), z4)
    assert r.count == 16
    M = inv.h1_monoid(r)
    assert cat.monoid_isomorphic(M, cat.product_monoid(z4, z4)) is not None


def test_h1_klein():
    z4 = cat.zmod(4)
    r = inv.h1(spaces.klein(), z4)
    assert r.count == 8
    M = inv.h1_monoid(r)
    assert cat.monoid_isomorphic(M, cat.equal_doubles_pairs(z4)) is not None


@pytest.mark.parametrize("name", ["cube2", "edge"])
def test_h1_monoid_unit_not_label_zero(name):
    # Z/2 with its unit labelled 1: the unit weighting is not the first
    # member of its class on these multi-vertex spaces
    z2 = cat.FinMonoid(((1, 0), (0, 1)), 1)
    M = inv.h1_monoid(inv.h1(spaces.by_name(name), z2))
    assert cat.monoid_isomorphic(M, cat.trivial_monoid()) is not None


def test_h1_monoid_needs_a_unit():
    r = inv.H1Result(cat.zmod(2), 2, ((0,), (1,)), table=((0, 0), (0, 0)), unit=0)
    with pytest.raises(inv.InvariantError):
        inv.h1_monoid(r)


# Z/4 with its labels shuffled so that the unit is 3
Z4_UNIT_3 = cat.FinMonoid(((2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3)), 3)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("torus", cat.product_monoid(cat.zmod(4), cat.zmod(4))),
        ("klein", cat.equal_doubles_pairs(cat.zmod(4))),
    ],
)
def test_h1_names_its_unit_class(name, expected):
    r = inv.h1(spaces.by_name(name), Z4_UNIT_3)
    # one vertex: every class is a single weighting, so the unit class is
    # the one whose representative is all units, and it is not class 0
    assert r.reps[r.unit] == (3, 3) and r.unit != 0
    M = inv.h1_monoid(r)
    assert M.unit == r.unit
    assert cat.monoid_isomorphic(M, expected) is not None


@pytest.mark.parametrize(
    "M",
    [cat.zmod(2), Z4_UNIT_3, cat.idempotent2(), cat.capped_add()],
    ids=["zmod2", "zmod4 unit 3", "idem2", "capped"],
)
@pytest.mark.parametrize("with_table", [True, False])
def test_h1_reads_a_one_object_category_as_its_monoid(M, with_table):
    for name in ("circle", "torus"):
        C = spaces.by_name(name)
        expected = inv.h1(C, M, with_table=with_table)
        assert inv.h1(C, cat.cat_from_monoid(M), with_table=with_table) == expected


@pytest.mark.parametrize("S", [cat.arrow_cat(), cat.discrete_cat(2)], ids=["arrow", "discrete-2"])
def test_h1_refuses_a_category_with_more_objects(S):
    with pytest.raises(inv.InvariantError):
        inv.h1(spaces.circle(), S)


@pytest.mark.parametrize("name, charge", [("torus", 112_128), ("klein", 106_718)])
def test_sd3_maps_into_the_idempotent_nerve_form_one_class(name, charge):
    # one class on the base too: the absorbing element is a transformation
    # between any two functors, so subdivision keeps the count (criterion 10)
    b = Budget(DEFAULT_BUDGET)
    assert inv.hom_classes(sd.sd3(spaces.by_name(name)).cset, cat.idempotent2(), b).count == 1
    assert inv.hom_classes(spaces.by_name(name), cat.idempotent2()).count == 1
    assert b.used == charge


def test_h1_trivial_coefficients():
    for name in ("circle", "torus", "klein", "sphere2"):
        assert inv.h1(spaces.by_name(name), cat.trivial_monoid()).count == 1


def test_h1_zigzag_is_closed():
    r = inv.h1(spaces.circle(), cat.sym3(), with_table=False)
    classes, _ = cat.conjugacy_classes(cat.sym3())
    assert r.count == len(classes)


def test_loop_classes_nerves():
    for M in (cat.zmod(2), cat.zmod(3)):
        ner = cat.nerve(M, 3)
        res = inv.loop_classes(ner, 0, 1)
        assert res.count == M.size
        loop = inv.loop_monoid(ner, 0)
        assert cat.monoid_isomorphic(loop, M) is not None
        assert inv.loop_classes(ner, 0, 2).count == 1


def test_loop_classes_charges_the_cells_it_examines():
    ner = cat.nerve(cat.zmod(3), 3)  # 1, 3, 27 and 2187 cells
    with pytest.raises(BudgetExceeded):
        inv.loop_classes(ner, 0, 1, Budget(1))
    b = Budget(10**6)
    assert inv.loop_classes(ner, 0, 2, b).count == 1
    assert b.used == 27 + 2187


def test_loop_classes_edge():
    res = inv.loop_classes(spaces.cube_space(1), 0, 1)
    assert res.count == 1


def test_loop_classes_truncation_guard():
    with pytest.raises(inv.InvariantError):
        inv.loop_classes(spaces.cube_space(1, 1), 0, 1)


def test_loop_classes_of_degree_zero_name_the_degree():
    with pytest.raises(inv.InvariantError, match=r"^loop degree must be >= 1, got 0$"):
        inv.loop_classes(spaces.torus(), 0, 0)


def test_loop_classes_vertex_guard():
    for v in (-1, 1):
        with pytest.raises(inv.InvariantError):
            inv.loop_classes(spaces.circle(), v, 1)


def scanned_loop_table(C, res):
    """The degree-1 loop table by a scan of every square per class pair."""
    class_of = {x: ci for ci, g in enumerate(res.classes) for x in g}
    sv = C.degens[(0, 1)][0]
    rows = []
    for g1 in res.classes:
        row = []
        for g2 in res.classes:
            found = {
                class_of[C.faces[(2, 2, 1)][sq]]
                for sq in C.cells(2)
                if C.faces[(2, 1, 0)][sq] == sv
                and C.faces[(2, 2, 0)][sq] in g1
                and C.faces[(2, 1, 1)][sq] in g2
                and C.faces[(2, 2, 1)][sq] in class_of
            }
            assert len(found) <= 1
            row.append(found.pop() if found else None)
        rows.append(tuple(row))
    return tuple(rows)


def test_loop_table_matches_a_scan_per_class_pair():
    for M in (cat.zmod(2), cat.zmod(3), cat.sym3(), cat.idempotent2(), cat.capped_add()):
        ner = cat.nerve(M, 2)
        res = inv.loop_classes(ner, 0, 1)
        assert res.table == scanned_loop_table(ner, res)


def test_hom_classes_examples():
    assert inv.hom_classes(spaces.edge(), cat.arrow_cat()).count == 1
    assert inv.hom_classes(spaces.edge_boundary(), cat.discrete_cat(2)).count == 4
    z4 = cat.zmod(4)
    hom = inv.hom_classes(spaces.torus(), z4)
    h1r = inv.h1(spaces.torus(), z4, with_table=False)
    assert hom.count == h1r.count == 16


def test_hom_classes_conjugacy_bridge():
    circ = spaces.circle()
    for M, expected in ((cat.sym3(), 3), (cat.zmod(4), 4), (cat.idempotent2(), 1)):
        assert inv.hom_classes(circ, M).count == expected


def test_presheaf_oracle_examples():
    r = inv.hom_classes_presheaf_oracle(spaces.point(), cat.nerve(cat.arrow_cat(), 2))
    assert r.count == 1
    r = inv.hom_classes_presheaf_oracle(
        spaces.edge_boundary(), cat.nerve(cat.discrete_cat(2), 2)
    )
    assert r.count == 4
    r = inv.hom_classes_presheaf_oracle(spaces.edge(), cat.nerve(cat.arrow_cat(), 2))
    assert r.count == 1
    assert inv.hom_classes(spaces.edge(), cat.arrow_cat()).count == 1


def test_oracle_equivalence_sample():
    pairs = [
        (spaces.circle(), cat.zmod(4), "zmod4"),
        (spaces.cube_space(2), cat.zmod(2), "zmod2"),
        (spaces.edge_boundary(), cat.arrow_cat(), "arrow"),
    ]
    for B, S, name in pairs:
        primary = inv.hom_classes(B, S)
        orc = inv.hom_classes_presheaf_oracle(B, cat.nerve(S, 2))
        assert primary.count == orc.count, name


def test_cancellative_collapse():
    z4 = cat.zmod(4)
    from dicube import t1

    for name in ("circle", "torus", "klein", "sphere2"):
        C = spaces.by_name(name)
        r = inv.h1(C, z4, with_table=False)
        assert r.count == t1.t1_functor_count(C, z4), name


def test_non_cancellative_collapse_is_strict():
    from dicube import t1

    idem = cat.idempotent2()
    r = inv.h1(spaces.circle(), idem, with_table=False)
    assert r.count == 1
    assert t1.t1_functor_count(spaces.circle(), idem) == 2


def test_tau1_composition_well_defined_guard():
    # all loop composites in a nerve come from squares, so the table must
    # reproduce the monoid operation
    M = cat.zmod(3)
    loop = inv.loop_monoid(cat.nerve(M, 3), 0)
    assert loop.table == M.table


def test_subdivision_invariance():
    z2 = cat.zmod(2)
    for name in ("circle", "torus", "klein", "sphere2"):
        C = spaces.by_name(name)
        s = sd.sd3(C)
        assert inv.pi0(C).count == inv.pi0(s.cset).count
        assert (
            inv.h1(C, z2, with_table=False).count
            == inv.h1(s.cset, z2, with_table=False).count
        )
        assert (
            inv.hom_classes(C, cat.arrow_cat()).count
            == inv.hom_classes(s.cset, cat.arrow_cat()).count
        )


def test_h1_reports_representatives():
    z2 = cat.zmod(2)
    r = inv.h1(spaces.torus(), z2)
    assert len(r.reps) == r.count == 4
    assert all(len(w) == 2 for w in r.reps)
    M = inv.h1_monoid(r)
    assert M.is_group()
