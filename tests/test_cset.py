import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from dicube import cat, cset, cube, lattice as lat, sd, spaces
from gluing import colimit


def test_representable_counts():
    r0 = cset.representable(0, 2)
    assert r0.sizes == (1, 1, 1)
    r1 = cset.representable(1, 1)
    assert r1.sizes == (2, 3)
    assert len(r1.nondegenerate(1)) == 1
    r3 = cset.representable(3, 3)
    assert r3.sizes == (8, 20, 44, 86)


def test_representable_needs_room():
    with pytest.raises(cset.CsetError):
        cset.representable(2, 1)


def test_negative_cube_dimension_is_a_cset_error():
    with pytest.raises(cset.CsetError, match="negative"):
        cset.representable(-1, 2)
    with pytest.raises(cset.CsetError, match="negative"):
        cset.boundary(-1, 2)


def test_nondegenerate_outside_the_truncation_is_a_cset_error():
    circ = spaces.circle()
    for n in (-1, 3, 5):
        with pytest.raises(cset.CsetError, match="truncated at 2"):
            circ.nondegenerate(n)
    with pytest.raises(cset.CsetError):
        circ.orbits(5)


def test_boundary_of_edge():
    C, bd = cset.boundary(1, 1)
    assert sorted(bd.sel[0]) == [0, 1]
    # the two degenerate edges lie in the boundary, the identity does not
    assert len(bd.sel[1]) == 2
    bd.check_closed()


def test_from_lattice_matches_representable():
    for n in range(3):
        A = cset.from_lattice(lat.boolean(n), 2)
        B = cset.representable(n, 2)
        assert A.sizes == B.sizes
        assert A.keys == B.keys


def test_from_lattice_chain():
    C = cset.from_lattice(lat.chain(2), 1)
    assert C.sizes[0] == 3
    assert len(C.nondegenerate(1)) == 2


def test_from_lattice_grid_census():
    C = cset.from_lattice(lat.product(lat.chain(3), lat.chain(3)), 2)
    assert C.census() == (16, 24, 9)


def test_from_lattice_rejects_non_distributive():
    with pytest.raises(cset.CsetError):
        cset.from_lattice(lat.m_lattice(3), 1)


def test_validation_catches_broken_degeneracy_identity():
    C = cset.representable(1, 1)
    assert C.validate()  # a well-formed set of the same truncation warms the memos
    faces = dict(C.faces)
    # a degenerate edge whose lower face disagrees with its source vertex
    degen_edge = C.degens[(0, 1)][0]
    tbl = list(faces[(1, 1, 0)])
    tbl[degen_edge] = 1 - tbl[degen_edge]
    faces[(1, 1, 0)] = tuple(tbl)
    broken = cset.CubicalSet(1, C.sizes, faces, dict(C.degens), dict(C.transps))
    with pytest.raises(cset.CsetError):
        broken.validate()


def test_validation_catches_broken_transposition():
    C = cset.representable(2, 2)
    assert C.validate()  # a well-formed set of the same truncation warms the memos
    transps = dict(C.transps)
    # make the transposition fix a cell it must move
    (a, b) = sorted(C.nondegenerate(2))
    tbl = list(transps[(2, 1)])
    tbl[a], tbl[b] = a, b
    transps[(2, 1)] = tuple(tbl)
    broken = cset.CubicalSet(2, C.sizes, dict(C.faces), dict(C.degens), transps)
    with pytest.raises(cset.CsetError):
        broken.validate()


# one table per family of representable(2, 2): (family, key, target dimension)
FAMILY_TABLES = [
    ("faces", (2, 1, 0), 1),
    ("degens", (1, 1), 2),
    ("transps", (2, 1), 2),
]


def _with_table(C, family, key, tbl):
    """A copy of C's tables with one entry replaced (None deletes it)."""
    tables = {name: dict(getattr(C, name)) for name in ("faces", "degens", "transps")}
    if tbl is None:
        del tables[family][key]
    else:
        tables[family][key] = tuple(tbl)
    return cset.CubicalSet(C.trunc, C.sizes, tables["faces"], tables["degens"], tables["transps"])


@pytest.mark.parametrize("family, key, target", FAMILY_TABLES, ids=lambda v: str(v))
def test_walkers_reject_a_broken_table_entry(family, key, target):
    C = cset.representable(2, 2)
    S = cset.vertex_sub(C, 0)
    n = key[0]
    x = min(S.sel[n])
    y = min(set(C.cells(target)) - S.sel[target])
    tbl = list(getattr(C, family)[key])
    tbl[x] = y
    broken = _with_table(C, family, key, tbl)
    identity = tuple(tuple(C.cells(m)) for m in range(C.trunc + 1))
    values = {(m, i): (m, i) for m in range(C.trunc + 1) for i in S.sel[m]}
    # the unbroken tables pass all four, which also warms the memos
    assert C.validate()
    assert cset.CubicalFunction(C, C, identity).validate()
    assert cset.Subpresheaf(C, S.sel).check_closed()
    assert sd.SubFunction(S, C, values).validate()
    with pytest.raises(cset.CsetError):
        broken.validate()
    with pytest.raises(cset.CsetError):
        cset.CubicalFunction(C, broken, identity).validate()
    with pytest.raises(cset.CsetError):
        cset.Subpresheaf(broken, S.sel).check_closed()
    with pytest.raises(sd.SdError):
        sd.SubFunction(S, broken, values).validate()


def _circle_star_lift():
    d9 = sd.sd9(spaces.circle())
    return d9, sd.local_lift(d9, cset.closed_star(d9.cset, 3))


@pytest.mark.parametrize(
    "case",
    [
        "wrong dimension", "image out of range", "negative image",
        "missing key", "extra key", "key outside the domain",
    ],
)
def test_subfunction_rejects_bad_keys_and_values(case):
    d9, lift = _circle_star_lift()
    S, values = lift.up.dom_sub, dict(lift.up.values)
    first = min(k for k in values if k[0] == 0)
    outside = (0, min(set(d9.cset.cells(0)) - S.sel[0]))
    if case == "wrong dimension":
        values[first] = (1, values[first][1])
    elif case == "image out of range":
        values[first] = (0, 999)
    elif case == "negative image":
        values[first] = (0, -1)
    elif case == "missing key":
        del values[first]
    elif case == "extra key":
        values[outside] = (0, 0)
    else:
        values[outside] = values.pop(first)
    with pytest.raises(sd.SdError):
        sd.SubFunction(S, lift.through, values).validate()


def test_subfunction_rejects_a_domain_that_is_not_closed():
    # the lone nondegenerate edge of the 1-cube, without its end vertices
    C = cset.representable(1, 1)
    edges = frozenset(C.nondegenerate(1))
    S = cset.Subpresheaf(C, (frozenset(), edges))
    with pytest.raises(sd.SdError, match="not a subpresheaf"):
        sd.SubFunction(S, C, {(1, e): (1, e) for e in edges}).validate()


@pytest.mark.parametrize("family, key, target", FAMILY_TABLES, ids=lambda v: str(v))
def test_structural_check_rejects_missing_and_out_of_range_tables(family, key, target):
    C = cset.representable(2, 2)
    with pytest.raises(cset.CsetError):
        _with_table(C, family, key, None)
    tbl = list(getattr(C, family)[key])
    tbl[0] = C.sizes[target]
    with pytest.raises(cset.CsetError):
        _with_table(C, family, key, tbl)
    with pytest.raises(cset.CsetError):
        _with_table(C, family, key, tbl[1:])


# keys of tables that no cubical set truncated at 2 has
@pytest.mark.parametrize("family, key", [("faces", (1, 3, 0)), ("degens", (2, 1)), ("transps", (1, 1))])
def test_structural_check_rejects_tables_outside_the_truncation(family, key):
    C = cset.representable(2, 2)
    with pytest.raises(cset.CsetError, match="outside truncation 2"):
        _with_table(C, family, key, [0] * C.sizes[key[0]])


def test_catalog_validates():
    for name in ("cube0", "cube1", "cube2", "circle", "torus", "klein", "sphere2"):
        C = spaces.by_name(name)
        assert C.validate()
    for C in (spaces.torus(4), spaces.klein(4)):
        assert C.validate()


# -- the relations of the cube category against every cube map -------------


@lru_cache(maxsize=None)
def _functoriality_pairs(trunc):
    """Per cube map phi between dimensions <= trunc, the pairs (g, phi o g)
    over the elementary maps g into its domain."""
    return tuple(
        (phi, tuple((g, cube.compose(phi, g)) for _, _, g in cset._elementary_maps_into(m, trunc)))
        for m in range(trunc + 1)
        for n in range(trunc + 1)
        for phi in cube.enumerate_maps(m, n)
    )


def _functorial_on_every_map(C):
    """Reference check: C(phi o g) == C(g) o C(phi) for every cube map phi
    and generator g into its domain, with C(phi) assembled from
    `cube.decompose`; by induction over the decompositions this is
    functoriality on the truncated cube category."""
    for phi, steps in _functoriality_pairs(C.trunc):
        base = C.action(phi)
        for g, whole in steps:
            if tuple(map(C.action(g).__getitem__, base)) != C.action(whole):
                return False
    return True


def _validates(C):
    try:
        return C.validate()
    except cset.CsetError:
        return False


def _copy(C, **changes):
    """A fresh set with C's tables, some of them replaced: family -> {key: table}."""
    tables = {family: {**getattr(C, family), **changes.get(family, {})} for family in cset.FAMILIES}
    return cset.CubicalSet(C.trunc, C.sizes, **tables)


CATALOG = ("cube0", "cube1", "cube2", "circle", "torus", "klein", "sphere2")
REFERENCE_SETS = {
    **{name: lambda name=name: spaces.by_name(name) for name in CATALOG},
    "torus(3)": lambda: spaces.torus(3),
    "klein(3)": lambda: spaces.klein(3),
    "sd3 klein(3)": lambda: sd.sd3(spaces.klein(3)).cset,
    "nerve(Z/2, 3)": lambda: cat.nerve(cat.zmod(2), 3),
    "nerve(idem2, 3)": lambda: cat.nerve(cat.idempotent2(), 3),
    "nerve(arrow, 3)": lambda: cat.nerve(cat.arrow_cat(), 3),
    "torus(4)": lambda: spaces.torus(4),
    "klein(4)": lambda: spaces.klein(4),
    "representable(2, 4)": lambda: cset.representable(2, 4),
    "representable(2, 3)": lambda: cset.representable(2, 3),
}


@pytest.mark.parametrize("name", REFERENCE_SETS)
def test_relations_agree_with_every_cube_map_on_valid_sets(name):
    C = _copy(REFERENCE_SETS[name]())
    assert _validates(C) and _functorial_on_every_map(_copy(C))


@pytest.mark.parametrize("family", cset.FAMILIES)
@pytest.mark.parametrize("name, count", [
    ("torus(3)", 8), ("klein(3)", 8), ("sd3 klein(3)", 8), ("nerve(idem2, 3)", 8),
    ("torus(4)", 4), ("klein(4)", 4), ("representable(2, 4)", 4),
])
def test_relations_agree_with_every_cube_map_on_single_entry_mutants(family, name, count):
    C = REFERENCE_SETS[name]()
    rng = random.Random(f"{name} {family}")
    targets = {key: g.dom for fam, key, g in cset._generator_tables(C.trunc) if fam == family}
    keys = sorted(key for key, m in targets.items() if C.sizes[m] > 1)
    verdicts = []
    for _ in range(count):
        key = rng.choice(keys)
        tbl = list(getattr(C, family)[key])
        x = rng.randrange(len(tbl))
        tbl[x] = rng.choice([v for v in range(C.sizes[targets[key]]) if v != tbl[x]])
        mutant = {family: {key: tuple(tbl)}}
        verdicts.append(_validates(_copy(C, **mutant)))
        assert verdicts[-1] == _functorial_on_every_map(_copy(C, **mutant)), (key, x)
    assert not all(verdicts)


@pytest.mark.parametrize("name", ["torus(3)", "klein(3)", "sd3 klein(3)", "representable(2, 3)"])
def test_relations_reject_a_transposition_sending_a_degenerate_cell_to_a_nondegenerate_one(name):
    # validation has no separate degenerate-closure check: the groups of
    # (degens, transps) words force transpositions to keep cells degenerate
    C = REFERENCE_SETS[name]()
    rng = random.Random(name)
    keys = sorted(key for key in C.transps if 0 < len(C.nondegenerate(key[0])) < C.sizes[key[0]])
    for _ in range(3):
        n, i = key = rng.choice(keys)
        tbl = list(C.transps[key])
        degenerate = sorted(set(C.cells(n)) - set(C.nondegenerate(n)))
        tbl[rng.choice(degenerate)] = rng.choice(C.nondegenerate(n))
        with pytest.raises(cset.CsetError, match="relation fails"):
            _copy(C, transps={key: tuple(tbl)}).validate()


@pytest.mark.parametrize("name", ["torus(4)", "klein(4)", "representable(2, 4)", "sd3 klein(3)"])
def test_relations_agree_with_every_cube_map_on_swapped_tables(name):
    C = REFERENCE_SETS[name]()
    swaps = 0
    for family in cset.FAMILIES:
        tables = getattr(C, family)
        for a, b in product(sorted(tables), repeat=2):
            if a < b and a[0] == b[0] and tables[a] != tables[b]:
                swapped = {family: {a: tables[b], b: tables[a]}}
                assert _validates(_copy(C, **swapped)) == _functorial_on_every_map(_copy(C, **swapped))
                swaps += 1
    assert swaps > 10
    # swapping every lower face with its upper face reverses the set, which
    # stays a cubical set
    reverse = {"faces": {(n, i, eps): C.faces[(n, i, 1 - eps)] for n, i, eps in C.faces}}
    assert _validates(_copy(C, **reverse)) and _functorial_on_every_map(_copy(C, **reverse))


@pytest.mark.parametrize("trunc", range(5))
def test_relations_are_sound_and_read_every_generator_table(trunc):
    """Every word of a group composes to one cube map, each word's
    triples name their maps' own tables, every generator table occurs,
    and each n >= 3 has its n - 2 braid relations."""
    keys = cset._generator_keys(trunc)
    used, braids = set(), Counter()
    for n, words in cset._relations(trunc):
        assert len(words) > 1 and len(set(words)) == len(words)
        maps = set()
        for word in words:
            phi = cube.identity(n)
            for family, key, g in word:
                assert keys[g] == (family, key)
                phi = cube.compose(phi, g)
                used.add((family, key))
            maps.add(phi)
        assert len(maps) == 1
        braids[n] += max(map(len, words)) == 3
    assert used == set(keys.values())
    assert all(braids[n] == max(n - 2, 0) for n in range(trunc + 1))
    groups = cset._relations(trunc)
    sizes = {3: (56, 132), 4: (138, 318)}
    if trunc in sizes:
        assert (len(groups), sum(len(words) for _, words in groups)) == sizes[trunc]


def test_validate_and_quotient_list_no_cube_maps(monkeypatch):
    sets = [spaces.torus(4), spaces.klein(4), sd.sd3(spaces.klein(3)).cset, cset.representable(2, 4)]
    R = sets[-1]
    top = cset.rep_cell(R, cube.identity(2))
    pairs = [((1, R.faces[(2, 1, 0)][top]), (1, R.faces[(2, 1, 1)][top]))]
    expected = cset.to_json(cset.quotient(R, pairs)[0])
    cset._relations.cache_clear()

    def refuse(*args):
        raise AssertionError("a cube map was enumerated, decomposed or acted by")

    monkeypatch.setattr(cube, "enumerate_maps", refuse)
    monkeypatch.setattr(cube, "decompose", refuse)
    monkeypatch.setattr(cset.CubicalSet, "action", refuse)
    for C in sets:
        assert _copy(C).validate()
    assert cset.to_json(cset.quotient(R, pairs)[0]) == expected


def _point_with_top_cells(trunc, transps):
    """The point truncated at trunc with more top cells, all faces constant,
    whose transposition tables (transps[i] for t_i) are given."""
    P = cset.representable(0, trunc)
    size = len(transps[0])
    faces = {key: (0,) * size if key[0] == trunc else tbl for key, tbl in P.faces.items()}
    t = {(trunc, i): tbl for i, tbl in enumerate(transps, 1)}
    return cset.CubicalSet(trunc, P.sizes[:-1] + (size,), faces, dict(P.degens), {**P.transps, **t})


def _reversed_degeneracy():
    C = cset.representable(1, 1)
    return _copy(C, degens={(0, 1): C.degens[(0, 1)][::-1]})


# sets that break exactly one relation: t_1 and t_2 generate a group of
# order 8 (the braid), t_1 has order 3 (t_1 t_1 = identity), and s_1 swaps
# the degenerate edges of the two vertices (d s = identity); the regex names
# the words that differ
ONE_RELATION_BROKEN = {
    "braid": (
        lambda: _point_with_top_cells(3, [(0, 2, 1, 4, 3), (0, 1, 3, 2, 4)]),
        r"transps\(3, 1\) then transps\(3, 2\) then transps\(3, 1\) != "
        r"transps\(3, 2\) then transps\(3, 1\) then transps\(3, 2\)",
    ),
    "involution": (
        lambda: _point_with_top_cells(2, [(0, 2, 3, 1)]),
        r"identity != transps\(2, 1\) then transps\(2, 1\)",
    ),
    "degeneracy": (_reversed_degeneracy, r"identity != degens\(0, 1\) then faces\(1, 1, 0\)"),
}


@pytest.mark.parametrize("case", ONE_RELATION_BROKEN)
def test_relations_catch_a_set_that_breaks_one_relation(case):
    build, words = ONE_RELATION_BROKEN[case]
    assert not _functorial_on_every_map(build())
    with pytest.raises(cset.CsetError, match=rf"relation fails on \d-cells: {words}"):
        build().validate()


def test_census_examples():
    assert spaces.circle().census() == (1, 1, 0)
    assert spaces.torus().census() == (1, 2, 1)
    assert spaces.klein().census() == (1, 2, 1)
    assert spaces.sphere2().census() == (1, 0, 1)
    assert spaces.cube_space(2).census() == (4, 4, 1)


def test_tensor_of_representables_is_representable():
    ts = cset.tensor(cset.representable(1, 2), cset.representable(1, 2))
    r2 = cset.representable(2, 2)
    assert ts.cset.sizes == r2.sizes
    # the canonical comparison (a, b, e) -> (a (x) b) o e is bijective
    r1 = cset.representable(1, 2)

    def as_map(level, idx):
        table = cube.FunctionTable(
            level, 1, tuple((v,) for v in r1.keys[level][idx])
        )
        phi, witness = cube.from_function(table)
        assert witness is None
        return phi

    classes = {}
    for node, idx in ts._node_index.items():
        (p, ia), (q, ib), e = node
        phi = cube.compose(cube.tensor(as_map(p, ia), as_map(q, ib)), e)
        key = (e.dom, idx)
        if key in classes:
            assert classes[key] == phi
        else:
            classes[key] = phi
    by_dim = {}
    for (n, _), phi in classes.items():
        by_dim.setdefault(n, set()).add(phi)
    for n in range(3):
        assert len(by_dim[n]) == r2.sizes[n]


def test_tensor_unit():
    circ = spaces.circle()
    ts = cset.tensor(circ, cset.representable(0, 2))
    assert ts.cset.sizes == circ.sizes
    # c |-> (c, point, id) is a bijection on every level
    pt = cset.representable(0, 2)
    for n in range(3):
        images = {ts.pair_class((n, i), (0, 0))[1] for i in circ.cells(n)}
        assert images == set(range(ts.cset.sizes[n]))
    for a, b in (((0, circ.sizes[0]), (0, 0)), ((1, 0), (0, 1)), ((2, 0), (1, 0))):
        with pytest.raises(cset.CsetError):
            ts.pair_class(a, b)


def test_tensor_associative_on_representables():
    r1 = cset.representable(1, 2)
    square = cset.tensor(r1, r1).cset
    left = cset.tensor(square, r1).cset
    right = cset.tensor(r1, square).cset
    cube3 = cset.from_lattice(lat.boolean(3), 2)
    assert left.sizes == right.sizes == cube3.sizes
    assert left.census() == right.census() == cube3.census()


def test_torus_model():
    torus = spaces.torus()
    assert torus.census() == (1, 2, 1)
    assert torus.validate()
    # tensor route and quotient route agree on the census
    assert spaces.torus_by_quotient().census() == torus.census()


def test_quotient_circle():
    r1 = cset.representable(1, 2)
    circ, proj_fn = cset.quotient(r1, [((0, 0), (0, 1))])
    assert circ.sizes[0] == 1
    assert len(circ.nondegenerate(1)) == 1
    proj_fn.validate()
    assert proj_fn.is_epi()
    # the pairs are read once, so a generator identifies as much as a list
    from_gen, _ = cset.quotient(r1, (p for p in [((0, 0), (0, 1))]))
    assert from_gen.sizes[0] == 1


def test_quotient_dimension_mismatch():
    r1 = cset.representable(1, 2)
    with pytest.raises(cset.CsetError):
        cset.quotient(r1, [((0, 0), (1, 0))])


def test_by_name_keeps_the_cube_truncation():
    assert spaces.by_name("cube0").trunc == 2
    assert spaces.by_name("cube3").trunc == 3
    assert spaces.by_name("cube3", 4).trunc == 4
    assert spaces.by_name("cube2") is spaces.by_name("cube2", 2) is spaces.cube_space(2)
    for name, trunc in (("cube3", 2), ("cube2", 1), ("cube1", 0)):
        with pytest.raises(cset.CsetError, match="truncation below"):
            spaces.by_name(name, trunc)


def test_by_name_rejects_an_unknown_space_with_a_cset_error():
    with pytest.raises(cset.CsetError, match="unknown space 'dodecahedron'"):
        spaces.by_name("dodecahedron")


def test_quotient_composition_equals_union():
    r2 = cset.representable(2, 2)
    top = cset.rep_cell(r2, cube.identity(2))

    def face(i, eps):
        return (1, r2.faces[(2, i, eps)][top])

    pairs1 = [(face(1, 0), face(1, 1))]
    pairs2 = [(face(2, 0), face(2, 1))]
    q1, p1 = cset.quotient(r2, pairs1)
    moved = [(p1(a), p1(b)) for a, b in pairs2]
    q12, p2 = cset.quotient(q1, moved)
    direct, _ = cset.quotient(r2, pairs1 + pairs2)
    assert q12.sizes == direct.sizes
    assert q12.census() == direct.census()


def test_sphere_collapses_edges():
    sph = spaces.sphere2()
    assert sph.sizes[0] == 1
    assert len(sph.nondegenerate(1)) == 0
    assert len(sph.orbits(2)) == 1


def test_subdivide_representable_counts():
    s = sd.sd3(cset.representable(1, 2))
    assert s.cset.sizes[0] == 4
    assert len(s.cset.nondegenerate(1)) == 3
    grid = cset.from_lattice(lat.product(lat.chain(3), lat.chain(3)), 2)
    s2 = sd.sd3(cset.representable(2, 2))
    assert s2.cset.sizes == grid.sizes


def test_subdivide_circle():
    s = sd.sd3(spaces.circle())
    assert s.cset.sizes[0] == 3
    assert len(s.cset.nondegenerate(1)) == 3
    from dicube import invariants as inv

    assert inv.pi0(s.cset).count == 1


def test_subdivide_top_cell_counts():
    for n in (1, 2):
        for k in range(4):
            s = sd.subdivide(cset.representable(n, n), k)
            assert len(s.cset.orbits(n)) == (k + 1) ** n


def test_eps_on_edge():
    s = sd.sd3(cset.representable(1, 2))
    eps = s.eps()
    assert eps.maps[0] == (0, 1, 0, 1)
    # exactly the middle edge maps to the nondegenerate edge
    (edge,) = cset.representable(1, 2).nondegenerate(1)
    hits = [e for e in s.cset.nondegenerate(1) if eps.maps[1][e] == edge]
    assert len(hits) == 1


def test_eps_on_point_is_identity():
    s = sd.sd3(cset.representable(0, 2))
    eps = s.eps()
    assert eps.maps[0] == (0,)


def test_eps_on_circle():
    circ = spaces.circle()
    s = sd.sd3(circ)
    eps = s.eps()
    (edge,) = circ.nondegenerate(1)
    hits = [e for e in s.cset.nondegenerate(1) if eps.maps[1][e] == edge]
    assert len(hits) == 1


def test_eps_vertex_map_matches_lattice_restriction():
    # the collapse on the square agrees with the middle-evaluation
    # restriction of the underlying lattice, which sends a triple
    # t0 <= t1 <= t2 of the threefold subdivision to t1; a vertex's label is
    # the label of a block vertex over a cell of the square, read through
    # that cell's table
    R = cset.representable(2, 2)
    s = sd.sd3(R)
    eps = s.eps()
    triples = set(lat.subdivide_lattice(lat.boolean(2), 2).labels)
    seen = set()
    for n, i in R.all_cells():
        SLn, BL = sd._block(n, 2, R.trunc)
        for u in BL.cells(0):
            (_, v) = s.class_of((n, i), (0, u))
            label = tuple(R.keys[n][i][b] for b in SLn.labels[BL.keys[0][u][0]])
            assert label in triples
            assert R.keys[0][eps.maps[0][v]][0] == label[1]
            seen.add(v)
    assert seen == set(s.cset.cells(0))


def test_eps_naturality_on_quotient_projections():
    r1 = cset.representable(1, 2)
    circ, proj_fn = cset.quotient(r1, [((0, 0), (0, 1))])
    sd_dom, sd_cod = sd.sd3(r1), sd.sd3(circ)
    sdf = sd_dom.induced(proj_fn, sd_cod)
    assert sd_cod.eps().compose_after(sdf).maps == proj_fn.compose_after(sd_dom.eps()).maps


def test_closed_star_of_edge_end_is_whole_edge():
    r1 = cset.representable(1, 2)
    star = cset.closed_star(r1, 0)
    assert star.sel[0] == frozenset({0, 1})
    assert len(star.sel[1]) == r1.sizes[1]


def test_supp_of_degenerate_edge_is_vertex():
    r1 = cset.representable(1, 2)
    sv = r1.degens[(0, 1)][0]
    supp = cset.atom(r1, (1, sv))
    assert supp.sel[0] == frozenset({0})
    assert sv in supp.sel[1]
    assert len(supp.sel[1]) == 1


def test_supp_sd3_of_interior_vertex():
    circ = spaces.circle()
    s = sd.sd3(circ)
    base_vertex_class = [v for v in s.cset.cells(0) if s.carrier_cell((0, v))[0] == 0]
    interior = [v for v in s.cset.cells(0) if v not in base_vertex_class]
    assert len(interior) == 2
    (edge,) = circ.nondegenerate(1)
    for v in interior:
        assert s.supp_vertex(v).sel == cset.atom(circ, (1, edge)).sel


def test_collapse_star_containment_catalog():
    for name in ("cube0", "cube1", "cube2", "circle", "torus", "klein", "sphere2"):
        C = spaces.by_name(name)
        s = sd.sd3(C)
        eps = s.eps()
        for v in s.cset.cells(0):
            star = cset.closed_star(s.cset, v)
            image = eps.image_of(star)
            assert image.issubset(s.supp_vertex(v)), (name, v)


def test_local_lift_point():
    d9 = sd.sd9(cset.representable(0, 2))
    lift = sd.local_lift(d9, cset.closed_star(d9.cset, 0))
    assert lift.dim == 0


def test_local_lift_edge_stars():
    d9 = sd.sd9(cset.representable(1, 2))
    dims = [
        sd.local_lift(d9, cset.closed_star(d9.cset, v)).dim for v in d9.cset.cells(0)
    ]
    assert set(dims) == {0, 1}
    assert len(dims) == 10


def test_local_lift_circle_stars():
    d9 = sd.sd9(spaces.circle())
    for v in d9.cset.cells(0):
        lift = sd.local_lift(d9, cset.closed_star(d9.cset, v))
        assert lift.dim in (0, 1)


def test_local_lift_rejects_empty_and_scattered():
    d9 = sd.sd9(cset.representable(1, 2))
    empty = cset.Subpresheaf(d9.cset, tuple(frozenset() for _ in range(3)))
    with pytest.raises(sd.SdError):
        sd.local_lift(d9, empty)
    # two far-apart vertices are not within one closed star
    far = cset.closure(d9.cset, [(0, 0), (0, 9)])
    with pytest.raises(sd.SdError):
        sd.local_lift(d9, far)


def test_partial_map_rejects_a_cell_outside_its_domain():
    d9 = sd.sd9(spaces.circle())
    lift = sd.local_lift(d9, cset.closed_star(d9.cset, 0))
    with pytest.raises(sd.SdError):
        lift.up((2, 10**6))


def test_subdivision_rejects_arguments_of_another_space():
    circ, torus = spaces.circle(), spaces.torus()
    s = sd.sd3(circ)
    identity = cset.CubicalFunction(
        circ, circ, tuple(tuple(circ.cells(n)) for n in range(circ.trunc + 1))
    )
    with pytest.raises(sd.SdError):
        s.induced(identity, sd.sd3(torus))


def _lift_outcomes(C):
    """(dim, up, down) of the local lift of every vertex star of sd9 C, or
    the `SdError` text where the lift fails."""
    d9 = sd.sd9(C)
    outcomes = []
    for v in d9.cset.cells(0):
        try:
            lift = sd.local_lift(d9, cset.closed_star(d9.cset, v))
        except sd.SdError as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append([lift.dim, sorted(lift.up.values.items()), lift.down.maps])
    return outcomes


# SHA-256 of the local lift of every vertex star of sd9 of torus, klein and
# sphere2, in that order: (dim, up, down), or the `SdError` text where the
# lift fails.  Recorded when `local_lift` came to search its up map over
# vertex assignments, which lifts every star.
LIFT_DIGEST = "05647315aa5bcc60f3229341eb7a51fe0af521bfa257d7c06f78f7495392d969"


def test_local_lift_digest():
    outcomes = [
        x for name in ("torus", "klein", "sphere2") for x in _lift_outcomes(spaces.by_name(name))
    ]
    assert sum(isinstance(x, str) for x in outcomes) == 0
    text = json.dumps(outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == LIFT_DIGEST


# SHA-256 of the maps of both collapses of sd9 of klein and torus, in that
# order, recorded before `Subdivision.eps` decided each collapse component
# once per block cell.
SD9_COLLAPSE_DIGEST = "12feb0e45f4cddce5f992295062941558bd459f4370c5c05587887a5111165e3"


def test_sd9_collapse_digest():
    d9s = [sd.sd9(spaces.by_name(name)) for name in ("klein", "torus")]
    text = json.dumps([[d9.eps1.maps, d9.eps2.maps] for d9 in d9s])
    assert hashlib.sha256(text.encode()).hexdigest() == SD9_COLLAPSE_DIGEST


def _cell_colimit(C, pairs, calls=None):
    """The test-only `gluing.colimit` on the cells of C, numbered dimension
    by dimension, with the action of C; `calls` collects each (phi, nodes)
    it is asked."""
    offset = [sum(C.sizes[:n]) for n in range(C.trunc + 1)]
    dims = [n for n in range(C.trunc + 1) for _ in C.cells(n)]

    def act(phi, xs):
        if calls is not None:
            calls.append((phi, list(xs)))
        tbl = C.action(phi)
        return [offset[phi.dom] + tbl[x - offset[phi.cod]] for x in xs]

    return colimit(C.trunc, dims, pairs, act)


def test_colimit_rejects_class_across_dimensions():
    with pytest.raises(cset.CsetError, match="internal: colimit class spans dimensions"):
        _cell_colimit(cset.representable(1, 1), [(0, 2)])


def test_colimit_rejects_action_that_splits_a_class():
    # the identity edge and the constant edge at vertex 0 glued without
    # their vertices: their upper faces 1 and 0 stay apart
    C = cset.representable(1, 1)
    ident = 2 + cset.rep_cell(C, cube.identity(1))
    const = 2 + cset.rep_cell(C, cube.CubeMap(1, 1, (cube.CONST0,)))
    with pytest.raises(cset.CsetError, match="internal: colimit action not well defined"):
        _cell_colimit(C, [(ident, const)])


def test_colimit_acts_once_per_generator_table():
    C = spaces.klein(3)
    calls = []
    Q, cls, _ = _cell_colimit(C, [], calls)
    assert len(calls) == len(cset._generator_tables(3))
    assert {phi for phi, _ in calls} == {g for _, _, g in cset._generator_tables(3)}
    offset = [sum(C.sizes[:n]) for n in range(4)]
    for phi, xs in calls:
        assert xs == list(range(offset[phi.cod], offset[phi.cod] + C.sizes[phi.cod]))
    assert cset.to_json(Q) == cset.to_json(cset.quotient(C, [])[0])
    assert cls == [i for n in range(4) for i in C.cells(n)]


def _collapsed_square(edges):
    """The square with each edge d_i^eps in `edges` glued to the degenerate
    edge of its first vertex, and its projection from the square."""
    r2 = cset.representable(2, 2)
    top = cset.rep_cell(r2, cube.identity(2))
    pairs = []
    for i, eps in edges:
        e = r2.faces[(2, i, eps)][top]
        v = r2.faces[(1, 1, 0)][e]
        pairs.append(((1, e), (1, r2.degens[(0, 1)][v])))
    return cset.quotient(r2, pairs)


# SHA-256 of `_lift_outcomes` on three quotients of the square whose faces
# are degenerate, recorded when `local_lift` came to search its up map over
# vertex assignments.
COLLAPSED_SQUARE_LIFT_DIGESTS = {
    ((1, 0),): "6975f95df0b7485370c3e90915f7bfeb20a55183d5f3819764d14d37a4758b53",
    ((1, 0), (2, 0)): "f4d93c8515daefd73f41c1c139723eb20e30f94782a220ae0e1d22544a44ffc2",
    ((1, 0), (1, 1)): "b5bbd37f05577739b1ff7326b289db2f7b7d7fa26ae801a072fd3d46db1a34fc",
}


@pytest.mark.parametrize("edges", sorted(COLLAPSED_SQUARE_LIFT_DIGESTS), ids=str)
def test_local_lift_on_collapsed_squares(edges):
    outcomes = _lift_outcomes(_collapsed_square(edges)[0])
    assert not any(isinstance(x, str) for x in outcomes)
    text = json.dumps(outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == COLLAPSED_SQUARE_LIFT_DIGESTS[edges]


def _one_twist_square():
    """The square with only klein's first gluing: d_1^1 onto d_2^0."""
    r2 = cset.representable(2, 2)
    top = cset.rep_cell(r2, cube.identity(2))
    C, _ = cset.quotient(r2, [((1, r2.faces[(2, 1, 1)][top]), (1, r2.faces[(2, 2, 0)][top]))])
    return C


# SHA-256 of `_lift_outcomes` on sd9 of cube2, circle, edge_boundary,
# torus_by_quotient and the one-twist square, in that order.  Recorded when
# `local_lift` came to search its up map over vertex assignments.
MORE_LIFTS_DIGEST = "53924e36ed0fd0081c96dfdf40b05353d057af2c3b75b14f49c463a7a1e2a257"


def test_local_lift_digest_on_more_spaces():
    named = [spaces.by_name(name) for name in ("cube2", "circle", "edge_boundary")]
    per_space = [
        _lift_outcomes(C)
        for C in named + [spaces.torus_by_quotient(2), _one_twist_square()]
    ]
    assert [len(x) for x in per_space] == [100, 9, 2, 81, 90]
    # the one-twist square is the smallest twisted gluing
    assert [v for v, x in enumerate(per_space[-1]) if isinstance(x, str)] == []
    assert all(not isinstance(x, str) for outcomes in per_space[:-1] for x in outcomes)
    text = json.dumps(per_space)
    assert hashlib.sha256(text.encode()).hexdigest() == MORE_LIFTS_DIGEST


def _lift_spaces():
    named = [(name, spaces.by_name(name)) for name in ("cube2", "circle", "torus", "klein", "sphere2")]
    return named + [("one-twist", _one_twist_square())]


# Per space, the stars of sd9 on which `local_lift` failed while it clamped
# to a carrier-block face, and the SHA-256 of [v, dim, down] over the other
# stars, each level of down's table sorted.  Recorded with the clamp; the
# search that replaced it lifts through the same representable with the
# same image of each cell, whichever top cell coordinatizes it.
CLAMP_DOWN_DIGESTS = {
    "cube2": ([], "d1f9d129cc3339706a86853ae6e48a7512448594e4eb38e2a53c182a37eeffd0"),
    "circle": ([], "24c672b3b1d8528029339c3aa3b48ef0f79369abf81f49e66a63ee1e86ec85e9"),
    "torus": ([], "c56671832f326081090107545d492742aede99f16145200825cdb35e41d9e098"),
    "klein": (
        [21, 22, 23, 24, 29, 30, 33, 34, 35, 36, 39, 40, 41, 42, 43, 44]
        + [49, 50, 51, 52, 53, 54, 55, 56, 65, 66, 67, 68, 73, 74, 75, 76],
        "e3eb152e220b650c84fa3ba8cb4ef23b7c4c8c67c1c23085f97df3b88136a93a",
    ),
    "sphere2": ([], "44f86227aa8ea59a3efc8907dbe494eb83797a3dbee1efc8b05f55224c533dfe"),
    "one-twist": (
        [32, 33, 44, 45, 48, 49, 52, 53, 62, 63, 64, 65, 82, 83, 84, 85],
        "63754b1d64c6cbc1a4873c1bd64434e937ace637f75a8e0506ef6da3b9d50260",
    ),
}


@pytest.mark.parametrize("name", sorted(CLAMP_DOWN_DIGESTS))
def test_local_lift_keeps_the_down_maps_of_the_clamp(name):
    C = dict(_lift_spaces())[name]
    failed, digest = CLAMP_DOWN_DIGESTS[name]
    d9 = sd.sd9(C)
    kept = []
    for v in d9.cset.cells(0):
        if v not in failed:
            lift = sd.local_lift(d9, cset.closed_star(d9.cset, v))
            kept.append([v, lift.dim, [sorted(level) for level in lift.down.maps]])
    assert hashlib.sha256(json.dumps(kept).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["klein", "one-twist"])
def test_local_lifts_commute_with_every_cube_map(name):
    d9 = sd.sd9(dict(_lift_spaces())[name])
    E, trunc = d9.cset, d9.cset.trunc
    phis = [phi for m in range(trunc + 1) for n in range(trunc + 1) for phi in cube.enumerate_maps(m, n)]
    for v in E.cells(0):
        S = cset.closed_star(E, v)
        lift = sd.local_lift(d9, S)
        R, up = lift.through, lift.up
        for phi in phis:
            e_tbl, r_tbl = E.action(phi), R.action(phi)
            for x in S.sel[phi.cod]:
                assert up((phi.dom, e_tbl[x])) == (phi.dom, r_tbl[up((phi.cod, x))[1]]), (v, phi)
        for j, level in enumerate(S.sel):
            for x in level:
                assert lift.down.maps[j][up((j, x))[1]] == d9.eps1.maps[j][d9.eps2.maps[j][x]]


def test_local_lift_without_a_hit_is_an_internal_error(monkeypatch):
    d9 = sd.sd9(spaces.circle())
    monkeypatch.setattr(sd, "_first_assignment", lambda *args: None)
    with pytest.raises(sd.SdError, match="^internal: "):
        sd.local_lift(d9, cset.closed_star(d9.cset, 0))


def test_local_lift_rejects_a_star_of_another_space():
    torus9, klein9 = sd.sd9(spaces.torus()), sd.sd9(spaces.klein())
    for v in torus9.cset.cells(0):
        with pytest.raises(sd.SdError, match="not of the double subdivision"):
            sd.local_lift(klein9, cset.closed_star(torus9.cset, v))


def test_local_lift_lifts_every_star_of_klein_at_truncation_3():
    d9 = sd.sd9(spaces.klein(3))
    dims = [sd.local_lift(d9, cset.closed_star(d9.cset, v)).dim for v in d9.cset.cells(0)]
    assert [dims.count(d) for d in range(4)] == [49, 28, 4, 0]


_KLEIN_LIFT_DIGEST_SCRIPT = """
import hashlib, json
from dicube import cset, sd, spaces
d9 = sd.sd9(spaces.klein())
lifts = []
for v in d9.cset.cells(0):
    lift = sd.local_lift(d9, cset.closed_star(d9.cset, v))
    lifts.append([lift.dim, sorted(lift.up.values.items()), lift.down.maps])
print(hashlib.sha256(json.dumps(lifts).encode()).hexdigest())
"""


def test_klein_lift_digest_does_not_depend_on_hash_seed():
    src = str(Path(sd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _KLEIN_LIFT_DIGEST_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            check=True,
        )
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_normal_forms_resolve_every_cell():
    for C in (spaces.klein(3), spaces.sphere2(), sd.sd3(spaces.circle()).cset, _one_twist_square()):
        for n, level in enumerate(cset._normal_forms(C)):
            assert [x for x, (m, _, _) in enumerate(level) if m == n] == list(C.nondegenerate(n))
            for x, (m, z, s) in enumerate(level):
                assert z in C.nondegenerate(m)
                assert (s.dom, s.cod) == (n, m) and cube.classify(s) in ("iso", "epi")
                assert C.act(s, z) == x


def _all_cells_subdivision(C, k):
    """Reference gluing of sd_{k+1} C: the colimit of blocks over every cell
    of C, degenerate or not, related along all three generator families.
    Returns the cubical set and, per cell, its carrier: the least cell of C
    under one of its nodes."""
    levels = range(C.trunc + 1)
    blocks = [sd._block(n, k, C.trunc)[1] for n in levels]
    start, dims, owner = {}, [], []
    for j in levels:
        for n in levels:
            start[(j, n)] = len(dims)
            for i in C.cells(n):
                dims += [j] * blocks[n].sizes[j]
                owner += [(n, i)] * blocks[n].sizes[j]

    def node(n, i, j):
        return start[(j, n)] + i * blocks[n].sizes[j]

    def relations():
        for n in levels:
            for _, _, g in cset._elementary_maps_into(n, C.trunc):
                moved, tables = C.action(g), sd._block_map(g.dom, n, g, k, C.trunc)
                for i in C.cells(n):
                    for j in levels:
                        lhs, rhs = node(g.dom, moved[i], j), node(n, i, j)
                        for u, v in enumerate(tables[j]):
                            yield lhs + u, rhs + v

    def act(phi, xs):
        for n in levels:
            tbl = blocks[n].action(phi)
            for i in C.cells(n):
                first = node(n, i, phi.dom)
                yield from (first + v for v in tbl)

    Q, _, members = colimit(C.trunc, dims, relations(), act)
    return Q, [[min(owner[x] for x in cls) for cls in level] for level in members]


def _random_quotient(rng, n, collapse=0.3):
    """The n-cube glued along one to three random pairs of its faces; the
    second cell of a pair may be transposed, or, with probability collapse,
    a degenerate cell on a face of the first."""
    return cset.quotient(*_random_gluing(rng, n, collapse))[0]


def _random_gluing(rng, n, collapse):
    """The n-cube and the pairs that `_random_quotient` glues it along."""
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
    return R, pairs


BUILT_IN = (
    "cube0", "cube1", "cube2", "cube3", "point", "edge", "edge_boundary",
    "circle", "torus", "klein", "sphere2",
)
REFERENCE_CASES = (
    [("space", name) for name in BUILT_IN]
    + [("space", name) for name in ("klein@3", "torus_by_quotient@3", "sd3 sd3 klein")]
    + [("space", "one-twist square")]
    + [("lattice", name) for name in ("sd3 cube2@1", "sd3 cube3@2", "sd3 chain2xchain2@1")]
    + [("collapsed", edges) for edges in sorted(COLLAPSED_SQUARE_LIFT_DIGESTS)]
    + [("random square", seed) for seed in range(18)]
    + [("random cube", seed) for seed in range(4)]
)


def _reference_case(kind, arg):
    """(cubical set, k) of a reference gluing case: sd3 throughout, except
    sd2 of the 3-cube and its quotients, whose sd3 takes seconds to glue
    over every cell."""
    if kind == "random square":
        return _random_quotient(random.Random(arg), 2), 2
    if kind == "random cube":
        return _random_quotient(random.Random(arg), 3), 1
    if arg == "cube3":
        return spaces.cube_space(3), 1
    if kind == "collapsed":
        return _collapsed_square(arg)[0], 2
    if kind == "lattice":
        L, k, trunc = _lattice_case(arg)
        return cset.from_lattice(L, trunc), k
    named = {
        "klein@3": lambda: spaces.klein(3),
        "torus_by_quotient@3": lambda: spaces.torus_by_quotient(3),
        "sd3 sd3 klein": lambda: sd.sd3(spaces.klein()).cset,
        "one-twist square": _one_twist_square,
    }
    return (named[arg]() if arg in named else spaces.by_name(arg)), 2


@pytest.mark.parametrize("kind, arg", REFERENCE_CASES, ids=str)
def test_gluing_over_nondegenerate_cells_matches_all_cells_reference(kind, arg):
    C, k = _reference_case(kind, arg)
    ref, carriers = _all_cells_subdivision(C, k)
    s = sd.subdivide(C, k)
    assert s.cset.sizes == ref.sizes
    for family in cset.FAMILIES:
        assert getattr(s.cset, family) == getattr(ref, family), family
    assert [[s.carrier_cell((j, i)) for i in s.cset.cells(j)] for j in range(C.trunc + 1)] == carriers


def _all_cells_tensor(A, B):
    """Reference Day-convolution tensor: the colimit of the triples (a, b, e)
    over every pair of cells, degenerate or not, glued along all three
    generator families of either factor.  Returns the cubical set, the class
    of every triple, and the numbers of nodes and of relation pairs."""
    trunc = min(A.trunc, B.trunc)
    nodes = sorted(
        ((p, ia), (q, ib), e)
        for n in range(trunc + 1)
        for p in range(min(A.trunc, n) + 1)
        for q in range(min(B.trunc, n - p) + 1)
        for e in cset._epis(n, p + q)
        for ia in A.cells(p)
        for ib in B.cells(q)
    )
    node_id = {node: x for x, node in enumerate(nodes)}

    def resolve(a, b, g, f):
        mu_a, mu_b, e = cset._split(a[0], g, f)
        return node_id[((mu_a.dom, A.action(mu_a)[a[1]]), (mu_b.dom, B.action(mu_b)[b[1]]), e)]

    pairs = []
    for X, Y, pair in ((A, B, lambda u, v: (u, v)), (B, A, lambda u, v: (v, u))):
        for p in range(X.trunc + 1):
            for _, _, alpha in cset._elementary_maps_into(p, X.trunc):
                moved = X.action(alpha)
                for q in range(min(Y.trunc, trunc - alpha.dom) + 1):
                    shifted = cube.tensor(*pair(alpha, cube.identity(q)))
                    k = alpha.dom + q
                    epis = [psi for n in range(k, trunc + 1) for psi in cset._epis(n, k)]
                    for psi, ix, iy in product(epis, X.cells(p), Y.cells(q)):
                        lhs = node_id[(*pair((alpha.dom, moved[ix]), (q, iy)), psi)]
                        pairs.append((lhs, resolve(*pair((p, ix), (q, iy)), shifted, psi)))

    def act(phi, xs):
        return [resolve(a, b, e, phi) for a, b, e in (nodes[x] for x in xs)]

    T, cls, _ = colimit(trunc, [e.dom for _, _, e in nodes], pairs, act)
    return T, {node: cls[x] for x, node in enumerate(nodes)}, len(nodes), len(pairs)


def _tensor_factor(name):
    """A factor of a reference tensor case: "space" (truncation 2),
    "space@trunc", "nerve <target>@trunc" or "random square|cube <seed>",
    a seeded quotient that sends faces to degenerate cells."""
    if name.startswith("random "):
        shape, seed = name[7:].split()
        n = {"square": 2, "cube": 3}[shape]
        return _random_quotient(random.Random(int(seed)), n, collapse=1.0)
    if name.startswith("nerve "):
        return _golden_space(name)
    space, _, trunc = name.partition("@")
    return spaces.by_name(space, int(trunc) if trunc else None)


TENSOR_RIGHT = ("point", "edge", "circle", "sphere2", "edge_boundary")
TENSOR_CASES = (
    [(space, right) for space in BUILT_IN for right in TENSOR_RIGHT]
    + [("klein@3", "circle@3"), ("sphere2@3", "circle@3"), ("cube3", "edge@3"), ("cube3", "circle@3")]
    + [(f"nerve {target}@2", right) for target in ("zmod2", "idem2") for right in ("edge", "circle")]
    + [("nerve arrow@3", "edge@3"), ("nerve arrow@3", "circle@3"), ("nerve zmod2@3", "circle@3")]
    + [(f"random square {seed}", "edge") for seed in range(8)]
    + [(f"random cube {seed}", "edge@3") for seed in range(4)]
)


@pytest.mark.parametrize("left, right", TENSOR_CASES, ids=str)
def test_tensor_over_nondegenerate_pairs_matches_all_cells_reference(left, right):
    A, B = _tensor_factor(left), _tensor_factor(right)
    ref, ref_class, _, _ = _all_cells_tensor(A, B)
    ts = cset.tensor(A, B)
    assert cset.to_json(ts.cset) == cset.to_json(ref)
    for (p, ia), (q, ib), _ in ts._node_index:
        assert ia in A.nondegenerate(p) and ib in B.nondegenerate(q)
    for a, b in product(A.all_cells(), B.all_cells()):
        n = a[0] + b[0]
        if n > ts.cset.trunc:
            with pytest.raises(cset.CsetError):
                ts.pair_class(a, b)
        else:
            assert ts.pair_class(a, b) == (n, ref_class[(a, b, cube.identity(n))])
    interval = cset.representable(1, max(A.trunc, 1))
    if B is interval:
        # the cylinder on A is this tensor: its inclusions are the reference
        # classes of the cells of A next to either end of the interval
        _, *incls = cset.cylinder(A)
        for incl, const in zip(incls, (cube.CONST0, cube.CONST1)):
            end = (0, cset.rep_cell(interval, cube.CubeMap(0, 1, (const,))))
            expected = [
                tuple(ref_class[((n, i), end, cube.identity(n))] for i in A.cells(n))
                for n in range(A.trunc + 1)
            ]
            assert list(incl.maps) == expected


@pytest.mark.parametrize("name", ["point", "edge", "circle", "cube2"])
def test_cylinder_is_built_once_per_set(name):
    B = spaces.by_name(name, 2)
    cyl, incl0, incl1 = cset.cylinder(B)
    assert cset.cylinder(B) is cset.cylinder(B)
    # the cached cylinder is the one a fresh tensor with the interval builds
    interval = cset.representable(1, 2)
    fresh = cset.tensor(B, interval)
    assert cyl.sizes == fresh.cset.sizes
    assert (cyl.faces, cyl.degens, cyl.transps) == (
        fresh.cset.faces, fresh.cset.degens, fresh.cset.transps
    )
    for incl, const in zip((incl0, incl1), (cube.CONST0, cube.CONST1)):
        end = (0, cset.rep_cell(interval, cube.CubeMap(0, 1, (const,))))
        assert incl.dom is B and incl.cod is cyl
        assert incl.maps == tuple(
            tuple(fresh.pair_class((n, i), end)[1] for i in B.cells(n)) for n in range(3)
        )


# (nodes, relation pairs) of the all-cells reference gluing, and the nodes
# over nondegenerate pairs that `cset.tensor` lists by orbit, which are the
# nodes the gluing over nondegenerate pairs had
TENSOR_COLIMIT_SIZES = {
    "torus(3)": ((228, 2996), 24),
    "cylinder(cube2)": ((244, 2176), 76),
    "circle(3) (x) klein(3)": ((402, 6114), 66),
}


class _NoUnionFind:
    def __init__(self, *args):
        raise AssertionError("cset.tensor built a UnionFind")


@pytest.mark.parametrize("name", sorted(TENSOR_COLIMIT_SIZES))
def test_tensor_colimit_sizes(name, monkeypatch):
    A, B = {
        "torus(3)": (spaces.circle(3), spaces.circle(3)),
        "cylinder(cube2)": (spaces.cube_space(2), cset.representable(1, 2)),
        "circle(3) (x) klein(3)": (spaces.circle(3), spaces.klein(3)),
    }[name]
    ref, _, *reference = _all_cells_tensor(A, B)
    monkeypatch.setattr(cset, "UnionFind", _NoUnionFind)
    ts = cset.tensor(A, B)
    assert (tuple(reference), len(ts._node_index)) == TENSOR_COLIMIT_SIZES[name]
    assert cset.to_json(ts.cset) == cset.to_json(ref)


@pytest.mark.parametrize(
    "a, b",
    [((0, -1), (0, 0)), ((1, 0), (0, -1)), ((0, 1), (0, 0)), ((0, 0), (1, 3)), ((2, 0), (1, 0))],
    ids=str,
)
def test_pair_class_rejects_bad_cells(a, b):
    ts = cset.tensor(spaces.circle(), spaces.edge())
    with pytest.raises(cset.CsetError):
        ts.pair_class(a, b)


def _closed_stars_by_scan(C):
    """Reference closed stars: per vertex v, the union of the closures of
    every nondegenerate cell of C whose vertices include v, found by
    scanning all of them."""
    closures = [cset.closure(C, [(n, i)]) for n in range(C.trunc + 1) for i in C.nondegenerate(n)]
    stars = []
    for v in C.cells(0):
        sel = [set() for _ in range(C.trunc + 1)]
        for a in closures:
            if v in a.sel[0]:
                for m in range(C.trunc + 1):
                    sel[m] |= a.sel[m]
        stars.append(tuple(frozenset(s) for s in sel))
    return stars


@pytest.mark.parametrize(
    "name", ["sd9 klein", "sd3 torus", "sd3 sphere2", "nerve idem2@3", "random square 5"]
)
def test_closed_star_matches_scan_reference(name):
    if name.startswith("random square"):
        C = _random_quotient(random.Random(int(name.split()[-1])), 2)
    else:
        C = _golden_space(name)
    for v, reference in enumerate(_closed_stars_by_scan(C)):
        star = cset.closed_star(C, v)
        assert star.sel == reference
        assert cset.closed_star(C, v) is star  # the star is built once and shared


def _closed_stars_by_atoms(C):
    """Reference closed stars: per vertex v, the union of the atoms of the
    nondegenerate cells whose atom contains v, each atom closed by looking
    a generator table up at every cell it pops."""

    def atom(n, i):
        sel, stack = [set() for _ in range(C.trunc + 1)], [(n, i)]
        sel[n].add(i)
        while stack:
            n, i = stack.pop()
            for family, key, g in cset._elementary_maps_into(n, C.trunc):
                x = getattr(C, family)[key][i]
                if x not in sel[g.dom]:
                    sel[g.dom].add(x)
                    stack.append((g.dom, x))
        return sel

    stars = [[] for _ in C.cells(0)]
    for a in (atom(n, i) for n in range(C.trunc + 1) for i in C.nondegenerate(n)):
        for w in a[0]:
            stars[w].append(a)
    return [tuple(map(frozenset().union, *star)) for star in stars]


@pytest.mark.parametrize("name", ["sd9 klein", "sd9 torus"])
def test_closed_star_matches_the_union_of_atoms(name):
    C = _golden_space(name)
    assert [cset.closed_star(C, v).sel for v in C.cells(0)] == _closed_stars_by_atoms(C)


PIN_SPACES = (
    "circle", "torus", "klein", "sphere2", "klein@3", "torus_by_quotient@3", "edge_boundary",
)

# SHA-256 of `class_of(c, u)` for every cell c of the base and every cell u
# of its block, degenerate c included, then the collapse maps, then the
# carrier of every cell, of sd3 of each of PIN_SPACES in order.  Recorded
# before the gluing ran over nondegenerate cells only.
CLASS_OF_DIGEST = "1cac36cbfeae926bb37b26cd72bf65e95690b50cbd91a0cfb819a1917ce27999"


def test_class_of_on_every_base_cell_is_pinned():
    pins = []
    for name in PIN_SPACES:
        space, _, trunc = name.partition("@")
        C = getattr(spaces, space)(*([int(trunc)] if trunc else []))
        s = sd.sd3(C)
        blocks = [sd._block(n, 2, C.trunc)[1] for n in range(C.trunc + 1)]
        pins.append(
            [
                [[s.class_of(c, u) for u in blocks[c[0]].all_cells()] for c in C.all_cells()],
                s.eps().maps,
                [s.carrier_cell(x) for x in s.cset.all_cells()],
            ]
        )
    text = json.dumps(pins)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASS_OF_DIGEST


def _maps_hitting_degenerate_cells():
    """Cubical functions some of whose images are degenerate cells: the
    projections of the collapsed squares, klein with an edge collapsed,
    and the square sent onto a degenerate square of the circle."""
    fs = [_collapsed_square(edges)[1] for edges in sorted(COLLAPSED_SQUARE_LIFT_DIGESTS)]
    K = spaces.klein()
    e = K.nondegenerate(1)[0]
    fs.append(cset.quotient(K, [((1, e), (1, K.degens[(0, 1)][K.faces[(1, 1, 0)][e]]))])[1])
    circ, R = spaces.circle(), cset.representable(2, 2)
    x = circ.degens[(1, 1)][circ.nondegenerate(1)[0]]
    maps = tuple(
        tuple(circ.act(cube.from_vertices(j, 2, key), x) for key in R.keys[j]) for j in range(3)
    )
    fs.append(cset.CubicalFunction(R, circ, maps))
    return fs


# SHA-256 of the maps of sd3 f for each of `_maps_hitting_degenerate_cells`,
# recorded before the gluing ran over nondegenerate cells only; re-recorded
# when the square came to be glued like every other cubical set, which
# orders the cells of its sd3 differently.
INDUCED_DIGEST = "f61acc6b56c1411915db30b54e67576e5189ff27b04bfc460f319c5f56a52e2f"


def test_induced_through_degenerate_images():
    induced = []
    for f in _maps_hitting_degenerate_cells():
        f.validate()
        assert any(
            f.maps[n][i] not in f.cod.nondegenerate(n) for n, i in f.dom.all_cells()
        )
        sd_dom, sd_cod = sd.sd3(f.dom), sd.sd3(f.cod)
        sdf = sd_dom.induced(f, sd_cod)
        assert sd_cod.eps().compose_after(sdf).maps == f.compose_after(sd_dom.eps()).maps
        induced.append(sdf.maps)
    text = json.dumps(induced)
    assert hashlib.sha256(text.encode()).hexdigest() == INDUCED_DIGEST


def test_subdivide_identity_at_zero():
    circ = spaces.circle()
    s = sd.subdivide(circ, 0)
    assert s.cset.sizes == circ.sizes
    assert s.cset.census() == circ.census()


def _sd9_circle_atom_with(cell):
    """An atom of sd9 circle with `cell` put into its top level."""
    E = sd.sd9(spaces.circle()).cset
    sel = cset.atom(E, (1, max(E.nondegenerate(1)))).sel
    return cset.Subpresheaf(E, sel[:-1] + (sel[-1] | {cell},))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cset.vertex_sub(spaces.circle(), -1),
        lambda: cset.vertex_sub(spaces.circle(), 1),
        lambda: cset.closed_star(spaces.circle(), 5),
        lambda: cset.atom(spaces.circle(), (0, 5)),
        lambda: cset.atom(spaces.circle(), (3, 0)),
        lambda: cset.closure(spaces.circle(), [(1, 0), (1, 99)]),
        lambda: cset.rep_cell(cset.representable(1, 2), cube.identity(2)),
        lambda: cset.rep_cell(cset.representable(1, 2), cube.identity(3)),
        lambda: cset.quotient(spaces.edge(), [((0, -1), (0, 0))]),
        lambda: cset.quotient(spaces.edge(), [((0, 5), (0, 0))]),
        lambda: cset.quotient(spaces.edge(), [((7, 0), (7, 0))]),
        lambda: cset.quotient(spaces.edge(), [((0, 0), (0, -1))]),
        lambda: _sd9_circle_atom_with(10**6),
        lambda: _sd9_circle_atom_with(-1),
    ],
)
def test_cells_outside_the_set_raise_cset_error(call):
    with pytest.raises(cset.CsetError):
        call()


@pytest.mark.parametrize("space", ["circle", "edge"])
@pytest.mark.parametrize(
    "call",
    [
        lambda r: r.class_of((0, 5), (0, 0)),
        lambda r: r.class_of((0, 0), (0, 99)),
        lambda r: r.class_of((3, 0), (0, 0)),
        lambda r: r.carrier_cell((0, 99)),
        lambda r: r.supp_vertex(99),
        lambda r: r.supp_vertex(r.cset.sizes[0]),
    ],
)
def test_cells_outside_the_subdivision_raise_sd_error(space, call):
    with pytest.raises(sd.SdError):
        call(sd.sd3(spaces.by_name(space)))


def test_json_round_trip():
    for name in ("circle", "torus", "klein"):
        C = spaces.by_name(name)
        back = cset.from_json(cset.to_json(C))
        assert back.sizes == C.sizes
        assert back.faces == C.faces
        assert back.degens == C.degens
        assert back.census() == C.census()


def test_dot_skeleton():
    text = cset.dot_skeleton(spaces.torus())
    assert text.count("->") == 2


def test_disjoint_union_doubles_components():
    from dicube import invariants as inv

    circ = spaces.circle()
    two = cset.disjoint_union(circ, circ)
    assert two.validate()
    assert inv.pi0(two).count == 2


# SHA-256 of `to_json`, recorded from the quotient, tensor and subdivision
# builders as they were before they shared `cset.colimit`, from the nerves
# as they were before `cat.cube_functors` ran on `cat.enumerate_functors`,
# and from `disjoint_union` and `sub_to_cset` as they were before they
# walked `_elementary_maps_into`; "nerve zmod3@3" before `cube_functors`
# filled its tables by a dynamic program over vertex pairs; "sd3 klein@3", "sd3 torus@3" and "sd9 klein"
# from the general subdivision path before `cset.colimit` acted on whole
# node lists; "tensor(sphere2@3, circle@3)" before `tensor` glued over
# nondegenerate pairs only.  The digests pin cell order, which the census
# and size checks above do not.
GOLDEN_DIGESTS = {
    "boundary(2, 3)": "e1cbaeb0862dc1615483559b96d04f9e7cfda716671e85aacb7099c78c2d468c",
    "circle@2": "7375eeb57ece3adf4a086fe5f721c66b2049cd481c502c046cc244a6ca49d3be",
    "circle@3": "4fffc320d14a4f5a877ce4babb74f45164ef69a30873af562b2e59d5ab62f4ba",
    "circle+circle": "934aac2a6bea330f0ffe10180b1c13f033a29732b98b794540bc3e1df61e0445",
    "cube0@2": "8410409c37e2b8391f4af2f12bb52936625a4a859e45b1a15c631a036fa53902",
    "cube0@3": "3e7d32564bd48355949bf4058c494e51cb5aa1b167da0fa7af376a5c43f0ab4f",
    "cube1@2": "509a8b920a771761156f3322e2bfa019ce617daaf681c335fd8f0b17e391f8e2",
    "cube1@3": "d30dc3e854b003ff6652b7900b427c234b23c8bf00e08fb5454719c04fcfba0a",
    "cube2@2": "d19ce3e0c6055297e86d89cbd5547ae3274377a149978bffc412e6e243e56dfb",
    "cube2@3": "fee8325df503dd372a5d1b84c0b4985b6198d6039a2229f8aaa8285d23acc731",
    "cube3@3": "a002cebaef49a77c6283c995b9b820a6f718812f0b954f4b7a5014c4bd51bbe0",
    "cylinder(circle)": "2015cb568c2c8b21c01ae2514a1d637bd2da13f5caa15449c53bb2021e0007ea",
    "edge@2": "509a8b920a771761156f3322e2bfa019ce617daaf681c335fd8f0b17e391f8e2",
    "edge@3": "d30dc3e854b003ff6652b7900b427c234b23c8bf00e08fb5454719c04fcfba0a",
    "edge_boundary@2": "c127f60d08230bb824ded1947d08a7d16100469d9e07bfad8785f1ad1b2b014e",
    "edge_boundary@3": "6baec1db31738ebaf99c13e8521115a3826f1842327c40aa228e6067ebd0d614",
    "klein@2": "e106f384da1d305cb68c6bcdb34f4058b08badb547ecb5a15b25f74f79b78156",
    "klein@3": "511a78708beabd788980aeb0a73fdb286ada32dd40d0fb49f2123e0473ce62bc",
    "nerve arrow@3": "da3f5551b3bc10f781f565f76768c529fc9ea0faa36bc46f9d409788fd99df27",
    "nerve discrete2@2": "c127f60d08230bb824ded1947d08a7d16100469d9e07bfad8785f1ad1b2b014e",
    "nerve idem2@3": "6c0c9da0efbc02c5c4c8561f86abfae367eb6cc0b2ac6669ce0d3d54d6c4b8e4",
    "nerve s3@2": "fbaa37f072cb767726569c817e356d8c586cd491c197198e92c6c544cc4de643",
    "nerve zmod2@3": "3427563f6b59d4edfd3abe11940bd9006624338fac7f34732ffa701241e27f84",
    "nerve zmod3@3": "eefb57f435790d3d657cf1d741a53065cd3d2a75e094c984bf62f43941b800f3",
    "point@2": "8410409c37e2b8391f4af2f12bb52936625a4a859e45b1a15c631a036fa53902",
    "point@3": "3e7d32564bd48355949bf4058c494e51cb5aa1b167da0fa7af376a5c43f0ab4f",
    "sd3 circle": "3e1dbc3ec5171f8ffd7f02856e7f2e96835b299fb15b636385c9253642caffe8",
    "sd3 klein": "9071f3ac32f6c870f003a3aa4fbf3c2959d1c7773936dd384540ea6760c09957",
    "sd3 klein@3": "145ae50b92e77d7264b20d0e862aa27dee4477928c4c0814ea9b1dfb5f4eb6b5",
    "sd3 sphere2": "1c66bac8f1fc8374c83d28f922d1004fcb724eae87afb6dc41953f807882cfda",
    "sd3 torus": "b1f15585726e7c0cd7dfbd76d15ad14f05c1bf5cf4e9718e7448ab24640e0944",
    "sd3 torus@3": "0cb10a87a71bfa6e2ca4a79660dcfb1219c891e04c49c98d3ae657e3cf35ea6a",
    "sd3 torus_by_quotient": "b1f15585726e7c0cd7dfbd76d15ad14f05c1bf5cf4e9718e7448ab24640e0944",
    "sd9 circle": "e55aa05445225baa7b2ddecd0c9a86050f0248e0c4ed0866b322422eaee4d8aa",
    "sd9 klein": "344e3402e144986494c9e6b0242efa0fecd0a01c4d0eedc590fda3d36e33729b",
    "sphere2@2": "af60ebae780e72126b7a445ec55d9c1ad09d63e490df9033490a315b2126e501",
    "sphere2@3": "4e744f36e4ca23cecda406949f4ffc259bc7dcf8c97c39ec2fc158536d98192c",
    "tensor(circle@3, klein@3)": "22d0c2d39d0f1246a425884b4de09294f34553613caf2fb6e35b4df278876a82",
    "tensor(sphere2@3, circle@3)": "3f009a48654bc0f1ebec3e8a903ccc17a3a4189be92815c9bc73115601b7403f",
    "torus@2": "af3329bb266533ebb724b332ab34cf77ad9bc0c842d56b076eb7bf99c78642be",
    "torus@3": "c13372e0b20291e8d0314180768639a0dec7a0c71c4645c27d5ef35770ffa45a",
}

# SHA-256 of `to_json` of the cylinder followed by the JSON of the maps of
# its two end inclusions, recorded before `tensor` computed each
# factorization of a cube map once per build; the sphere2, torus, klein and
# nerve entries before `tensor` glued over nondegenerate pairs only.
CYLINDER_DIGESTS = {
    "circle@2": "d67e6b6167d4005c4ed18449f40dafa95842e02232277478c167377133530d71",
    "cube2@2": "98bfda74c50a8d0f4e19d33fb60a9435f4f727dc75fe10d476dd6d6a7e3d5ce1",
    "cube2@3": "0210a0aa0b68c377e2c978bd28acb0bc2cb9a180dfa15ebfd24e9f8644bf2515",
    "edge@2": "31e8d8ecf999937003f385f6f2c2b3768fc7c49ed37095dd73881ecf099da905",
    "edge_boundary@2": "2509e6934cd5106451dd6cad50e7cbccbf9cd133d13d35ea4c9257a89559d05a",
    "klein@2": "721d5f103dfc8842b03484796f8ea0fd1d7993c17100161a533dbc559d9c2ca5",
    "klein@3": "7a0000d564f06d5fa31d34d81844e7e586aa75596f5e9fb818192c4b55979bfc",
    "nerve:zmod2@2": "61b164b991ec3530a6e908853a563e809d6112c89312ada4c12dd19f0862024f",
    "point@2": "555c5c9f33aa53366c0abf9a9d5eb0e3851eb4c58608c3c77578c22c69084b21",
    "sphere2@2": "3de9f07a29a2212ed482573aad160aef22aac9790493296d381c4d70a3c0464d",
    "sphere2@3": "7eb4f7e95bb6d5034ec2dde0af3cc4d2fafe20eb33daba786aa7fcc72ad3354b",
    "torus@2": "c753f22cda96ea4b13c2dcf4070a0ac7d223d83d3bb583ddcc9d04c0889f7ab6",
}


def _golden_space(name):
    if name == "cylinder(circle)":
        return cset.cylinder(spaces.circle())[0]
    if name.startswith("tensor("):
        factors = (part.split("@") for part in name[7:-1].split(", "))
        return cset.tensor(*(spaces.by_name(space, int(trunc)) for space, trunc in factors)).cset
    if name == "circle+circle":
        return cset.disjoint_union(spaces.circle(), spaces.circle())
    if name == "boundary(2, 3)":
        return cset.sub_to_cset(cset.boundary(2, 3)[1])[0]
    if name.startswith("sd3 "):
        space, _, trunc = name[4:].partition("@")
        return sd.sd3(getattr(spaces, space)(*([int(trunc)] if trunc else []))).cset
    if name.startswith("sd9 "):
        return sd.sd9(getattr(spaces, name[4:])()).cset
    if name.startswith("nerve "):
        target, trunc = name[6:].split("@")
        named = {"arrow": cat.arrow_cat, "discrete2": lambda: cat.discrete_cat(2)}
        S = named[target]() if target in named else cat.monoid_by_name(target)
        return cat.nerve(S, int(trunc))
    space, trunc = name.split("@")
    return spaces.by_name(space, int(trunc))


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_digest(name):
    text = cset.to_json(_golden_space(name))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CYLINDER_DIGESTS))
def test_cylinder_digest(name):
    space, trunc = name.split("@")
    cyl, incl0, incl1 = cset.cylinder(spaces.by_name(space, int(trunc)))
    text = cset.to_json(cyl) + json.dumps([incl0.maps, incl1.maps])
    assert hashlib.sha256(text.encode()).hexdigest() == CYLINDER_DIGESTS[name]


def _quotient_by_worklist(C, pairs):
    """Reference quotient: close the pairs under the generator actions with
    a worklist, then induce the tables; classes ordered by least cell."""
    uf = cset.UnionFind(C.all_cells())
    worklist = [(a, b) for a, b in pairs if uf.union(a, b)]

    def moves(n):
        out = [(n - 1, C.faces[(n, i, eps)]) for i in range(1, n + 1) for eps in (0, 1)]
        if n < C.trunc:
            out += [(n + 1, C.degens[(n, i)]) for i in range(1, n + 2)]
        return out + [(n, C.transps[(n, i)]) for i in range(1, n)]

    while worklist:
        (n, x), (_, y) = worklist.pop()
        for m, tbl in moves(n):
            if uf.union((m, tbl[x]), (m, tbl[y])):
                worklist.append(((m, tbl[x]), (m, tbl[y])))
    levels = range(C.trunc + 1)
    roots = [sorted({uf.find((n, i)) for i in C.cells(n)}) for n in levels]
    index = [{r: k for k, r in enumerate(roots[n])} for n in levels]
    proj = tuple(tuple(index[n][uf.find((n, i))] for i in C.cells(n)) for n in levels)

    def induce(tables, target):
        out = {}
        for key, tbl in tables.items():
            n, new = key[0], [None] * len(roots[key[0]])
            for i in C.cells(n):
                v = proj[target(n)][tbl[i]]
                assert new[proj[n][i]] in (None, v)
                new[proj[n][i]] = v
            out[key] = tuple(new)
        return out

    Q = cset.CubicalSet(
        C.trunc,
        tuple(len(r) for r in roots),
        induce(C.faces, lambda n: n - 1),
        induce(C.degens, lambda n: n + 1),
        induce(C.transps, lambda n: n),
    )
    return Q, proj


@pytest.mark.parametrize("space", ["representable(2, 3)", "torus(2)"])
def test_quotient_matches_worklist_closure(space):
    C = cset.representable(2, 3) if space == "representable(2, 3)" else spaces.torus(2)
    rng = random.Random(space)
    for _ in range(12):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randrange(C.trunc + 1)
            pairs.append(((n, rng.randrange(C.sizes[n])), (n, rng.randrange(C.sizes[n]))))
        Q, proj_fn = cset.quotient(C, pairs)
        ref, ref_proj = _quotient_by_worklist(C, pairs)
        assert cset.to_json(Q) == cset.to_json(ref), pairs
        assert proj_fn.maps == ref_proj
        assert Q.validate()


def _assert_quotient_projects(C, pairs):
    """The quotient and its projection validate, the projection is onto and
    identifies each given pair."""
    Q, proj = cset.quotient(C, pairs)
    assert proj.validate() and Q.validate() and proj.is_epi()
    assert all(proj(a) == proj(b) for a, b in pairs)


@pytest.mark.parametrize("name", BUILT_IN)
def test_quotient_projection_validates_on_the_catalog(name):
    C = spaces.by_name(name)
    _assert_quotient_projects(C, [((0, v), (0, 0)) for v in C.cells(0)])
    rng = random.Random(name)
    dims = [n for n in range(C.trunc + 1) if C.sizes[n]]
    for _ in range(6):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            n = rng.choice(dims)
            pairs.append(((n, rng.randrange(C.sizes[n])), (n, rng.randrange(C.sizes[n]))))
        _assert_quotient_projects(C, pairs)


@pytest.mark.parametrize("n, seeds", [(2, 18), (3, 4)])
@pytest.mark.parametrize("collapse", [0.3, 1.0])
def test_quotient_projection_validates_on_random_gluings(n, seeds, collapse):
    for seed in range(seeds):
        _assert_quotient_projects(*_random_gluing(random.Random(seed), n, collapse))


# SHA-256 of outputs of the subdivision, recorded before cube maps moved
# vertex indices through `CubeMap.vertices` and Boolean intervals were
# coordinatized by `lattice.interval_span`, when cubes were subdivided on
# their lattice directly:
# - "sdK cubeN@T": `to_json` of the cubical set of the subdivided lattice,
#   `from_lattice(subdivide_lattice(boolean(N), K - 1), T)`, which the glued
#   `subdivide(cube_space(N, T), K - 1)` is isomorphic to (checked below);
# - "eps sd3 X": the maps of the collapse of sd3 X, followed for cube2@3 by
#   the carrier cell of every cell of sd3;
# - "sd9 cube1": `to_json` of sd9, the maps of both collapses, and the
#   (dim, up, down) of the local lift of every vertex star.
# The cube2@3 collapse and sd9 cube1 pins were re-recorded when cubes came
# to be glued like every other cubical set, which orders their cells
# differently; sd9 cube1 again when the lift lost its clamp face.
LATTICE_PATH_DIGESTS = {
    "sd1 cube1@2": "509a8b920a771761156f3322e2bfa019ce617daaf681c335fd8f0b17e391f8e2",
    "sd2 cube1@2": "415e3dabbe465ab4c6b72989d96bc1e4ca61394033ee860bbbeb0e7e0a5409d5",
    "sd3 cube1@2": "6150c52b6c3301e2502db3e2baaf8d4b3b0dc92955ced826094c2dc68e2d3ba4",
    "sd4 cube1@2": "0642c787659cfb4abe571fbaad429880ef5cc6386691217eb5470d858c85b679",
    "sd1 cube1@3": "d30dc3e854b003ff6652b7900b427c234b23c8bf00e08fb5454719c04fcfba0a",
    "sd2 cube1@3": "e094073b2ce87178a78599ba7fc47fc7824789c20fb930c39790b736cae93473",
    "sd3 cube1@3": "b98aef8bc428325dcec8aa6611c1c1930de60af7e21eef534eeed1fe3e5b1241",
    "sd4 cube1@3": "6cd666ffc3ae94efb0faab41045343beab6116df2857f67d5b9c6bbc132008c0",
    "sd1 cube2@2": "d19ce3e0c6055297e86d89cbd5547ae3274377a149978bffc412e6e243e56dfb",
    "sd2 cube2@2": "c99913e8e2002e9101454a1a8c3056f57c827a44b661fb2cddee364f2a6e3121",
    "sd3 cube2@2": "8e7b6a9f340d73b82ba908fc188ba912fb2d4811a8477558f07dece463989f06",
    "sd4 cube2@2": "74924e6bd7232c365beb2dbc8df6391bc15dcda384a82e57abbde452bd7e5814",
    "sd1 cube2@3": "fee8325df503dd372a5d1b84c0b4985b6198d6039a2229f8aaa8285d23acc731",
    "sd2 cube2@3": "b34a52c201b364a6d98a8dbfff0e14289e1a558b87ee44c986d098838a672f4d",
    "sd3 cube2@3": "0eb242be400ae6196f191f9d7405a93964a438e99b89f2307b113d454dfdf553",
    "sd4 cube2@3": "cc118178d06e828b143e05f74783b1b6792d163c0e62284f75bdc081d8ad10ad",
    "eps sd3 cube2@3": "6eb0df70de584a8e739d4158d91691d8747c3b32a03a5eb886b35cd7ca8fae82",
    "eps sd3 circle@2": "2adcc74529f985544ba66a8790301de79df3eabf11bc993441ba5b1dcb46b4b5",
    "eps sd3 klein@2": "fa118738804d133761089d6a48a353b804f46b53ff18dcc99c915cac877868f5",
    "eps sd3 torus@2": "f511289f4affebd25f95edb1366734506f6b695767b33defd12458cb6101444f",
    "eps sd3 sphere2@2": "5fd2afbf583f5d83d1f1e5a33547efb44fcb37c20e2bae60ca1bb7da2fdf3620",
    "sd9 cube1": "d26810ff027b1d807bf0de91db00610077177066174f7545be748259755d665a",
}


def _lattice_path_text(name):
    if name == "sd9 cube1":
        d9 = sd.sd9(spaces.cube_space(1))
        lifts = []
        for v in d9.cset.cells(0):
            lift = sd.local_lift(d9, cset.closed_star(d9.cset, v))
            lifts.append([lift.dim, sorted(lift.up.values.items()), lift.down.maps])
        return cset.to_json(d9.cset) + json.dumps([d9.eps1.maps, d9.eps2.maps, lifts])
    if name.startswith("eps sd3 "):
        space, trunc = name[8:].split("@")
        r = sd.sd3(spaces.by_name(space, int(trunc)))
        text = json.dumps(r.eps().maps)
        if space == "cube2":
            text += json.dumps([r.carrier_cell(c) for c in r.cset.all_cells()])
        return text
    L, k, trunc = _lattice_case(name)
    return cset.to_json(cset.from_lattice(lat.subdivide_lattice(L, k), trunc))


@pytest.mark.parametrize("name", sorted(LATTICE_PATH_DIGESTS))
def test_lattice_path_digest(name):
    text = _lattice_path_text(name)
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_PATH_DIGESTS[name]


def _lattice_case(name):
    """(L, k, trunc) of a case "sdK X@T", X a cube "cubeN" or a product of
    chains "chainAxchainB": sd_K of the cubical set of L at truncation T."""
    head, trunc = name.split("@")
    sdk, shape = head.split(" ")
    if shape.startswith("cube"):
        L = lat.boolean(int(shape[4:]))
    else:
        a, b = (int(part[5:]) for part in shape.split("x"))
        L = lat.product(lat.chain(a), lat.chain(b))
    return L, int(sdk[2:]) - 1, int(trunc)


LATTICE_ISO_CASES = [
    name for name in sorted(LATTICE_PATH_DIGESTS) if name.startswith("sd") and "@" in name
] + ["sd3 chain3xchain2@2", "sd9 chain2xchain2@2"]


@pytest.mark.parametrize("name", LATTICE_ISO_CASES)
def test_glued_subdivision_is_isomorphic_to_subdivided_lattice(name):
    # A node (c, u) over a nondegenerate cell c names the cell of the
    # subdivided lattice whose table is u's block labels read through c's
    # table; every node of a cell must name the same one, and the map must
    # be a bijective cubical function.
    L, k, trunc = _lattice_case(name)
    base = cset.from_lattice(L, trunc)
    s = sd.subdivide(base, k)
    sdL = lat.subdivide_lattice(L, k)
    ref = cset.from_lattice(sdL, trunc)
    tables = [[set() for _ in s.cset.cells(j)] for j in range(trunc + 1)]
    for n in range(trunc + 1):
        if not base.nondegenerate(n):
            continue
        SLn, BL = sd._block(n, k, trunc)
        for i in base.nondegenerate(n):
            ckey = base.keys[n][i]
            for j, u in BL.all_cells():
                table = tuple(
                    sdL.index[tuple(ckey[b] for b in SLn.labels[v])] for v in BL.keys[j][u]
                )
                tables[j][s.class_of((n, i), (j, u))[1]].add(table)
    maps = []
    for j, level in enumerate(tables):
        assert all(len(found) == 1 for found in level), j
        image = tuple(ref.key_index(j)[table] for (table,) in level)
        assert sorted(image) == list(ref.cells(j)), j
        maps.append(image)
    cset.CubicalFunction(s.cset, ref, tuple(maps)).validate()
