import pytest

from dicube import cat, cset, cube, sd, spaces, t1


def test_square_convention_self_test():
    assert t1.check_square_convention()


def test_square_presentation():
    P, edges = t1.fundamental_presentation(spaces.cube_space(2))
    assert P.n_obj == 4
    assert len(P.gens) == 4
    assert len(P.relations) == 1
    assert len(edges) == 4
    assert t1.t1_functor_count(spaces.cube_space(2), cat.arrow_cat()) == 6


def test_torus_presentation_is_commuting_pair():
    P, _ = t1.fundamental_presentation(spaces.torus())
    assert P.n_obj == 1
    assert len(P.gens) == 2
    assert P.relations == (((0, 1), (1, 0)),)


def test_klein_presentation_is_equal_squares():
    P, _ = t1.fundamental_presentation(spaces.klein())
    assert P.n_obj == 1
    assert len(P.gens) == 2
    assert P.relations == (((0, 0), (1, 1)),)


def test_circle_presentation_is_free_loop():
    P, _ = t1.fundamental_presentation(spaces.circle())
    assert P.n_obj == 1
    assert len(P.gens) == 1
    assert P.relations == ()


def test_sphere_presentation_is_trivial():
    P, _ = t1.fundamental_presentation(spaces.sphere2())
    assert P.n_obj == 1
    assert len(P.gens) == 0


def test_functor_counts():
    z4 = cat.zmod(4)
    assert t1.t1_functor_count(spaces.torus(), z4) == 16
    assert t1.t1_functor_count(spaces.klein(), z4) == 8
    for n in range(3):
        assert t1.t1_functor_count(spaces.cube_space(max(n, 2)), cat.terminal_cat()) == 1


def test_poset_collapse():
    # the presented cube has the functor counts of the cube poset
    targets = {
        "arrow": cat.arrow_cat(),
        "z2": cat.zmod(2),
        "z3": cat.zmod(3),
        "discrete2": cat.discrete_cat(2),
    }
    for n in (0, 1, 2):
        C = spaces.cube_space(max(n, 2))
        if n < 2:
            C = spaces.cube_space(n, 2)
        for name, S in targets.items():
            direct = len(cat.cube_functors(S, n))
            assert t1.t1_functor_count(C, S) == direct, (n, name)


def test_orientation_regression():
    # pinning the square-relation convention: lower-2 then upper-1 equals
    # lower-1 then upper-2, with left-to-right words
    r2 = spaces.cube_space(2)
    P, edges = t1.fundamental_presentation(r2)
    ((w1, w2),) = P.relations
    top = cset.rep_cell(r2, cube.identity(2))
    lower2 = r2.faces[(2, 2, 0)][top]
    upper1 = r2.faces[(2, 1, 1)][top]
    lower1 = r2.faces[(2, 1, 0)][top]
    upper2 = r2.faces[(2, 2, 1)][top]
    gen_of = {e: g for g, e in enumerate(edges)}
    words = {w1, w2}
    assert (gen_of[lower2], gen_of[upper1]) in words
    assert (gen_of[lower1], gen_of[upper2]) in words
    # abelian-target counts are insensitive to reversing the orientation
    for M in (cat.zmod(4), cat.product_monoid(cat.zmod(2), cat.zmod(2))):
        count = t1.t1_functor_count(spaces.torus(), M)
        reversed_P = cat.CatPresentation(
            1,
            tuple((t, s) for s, t in t1.fundamental_presentation(spaces.torus())[0].gens),
            tuple(
                (tuple(reversed(w1_)), tuple(reversed(w2_)))
                for w1_, w2_ in t1.fundamental_presentation(spaces.torus())[0].relations
            ),
        )
        assert len(cat.enumerate_functors(reversed_P, M)) == count


def test_subdivision_preserves_class_counts():
    z2 = cat.zmod(2)
    from dicube import invariants as inv

    for name in ("circle", "torus", "klein"):
        C = spaces.by_name(name)
        s = sd.sd3(C)
        base = inv.h1(C, z2, with_table=False).count
        subd = inv.h1(s.cset, z2, with_table=False).count
        assert base == subd, name


def test_requires_two_dimensions():
    with pytest.raises(t1.T1Error):
        t1.fundamental_presentation(spaces.cube_space(1, 1))


def test_presentation_is_built_once_per_cubical_set():
    C = sd.sd3(spaces.torus()).cset
    first = t1.fundamental_presentation(C)
    assert t1.fundamental_presentation(C) is first
    rebuilt = cset.from_json(cset.to_json(C))
    assert t1.fundamental_presentation(rebuilt) == first


def test_presentation_exports():
    P, edges = t1.fundamental_presentation(spaces.torus())
    text = t1.presentation_json(P, edges)
    assert '"objects": 1' in text
    dot = t1.presentation_dot(P)
    assert dot.count("->") == 2
