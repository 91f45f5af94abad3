"""The listing of sd C by carriers against gluing: the colimit of the
subdivided blocks over the nondegenerate cells of C, computed by the
test-only engine `gluing.colimit`, with its carrier and collapse checks
made member by member."""

from types import SimpleNamespace

import pytest

from dicube import cat, cset, cube, sd, spaces
from gluing import colimit


def _glued_subdivision(C, k):
    """Reference sd_{k+1} C: nodes (nondegenerate cell c of C, cell u of its
    block), numbered by (j, n, c, u) and glued along the faces and
    transpositions out of c.  Per cell, its member nodes and its carrier,
    the least cell of C under a member; every member's cell must contain
    the carrier's atom, and a member of the carrier's dimension must have
    the same atom.  `class_of(c, u)` resolves a degenerate c through its
    normal form; `eps()` collapses each member and requires them to agree."""
    trunc = C.trunc
    levels = range(trunc + 1)
    normal = cset._normal_forms(C)
    nondeg = [C.nondegenerate(n) for n in levels]
    top = max((n for n in levels if nondeg[n]), default=0)
    blocks = [sd._block(n, k, trunc)[1] for n in range(top + 1)]
    nodes, start = [], {}
    for j in levels:
        for n in range(top + 1):
            for i in nondeg[n]:
                start[(j, n, i)] = len(nodes)
                nodes.extend(((n, i), (j, u)) for u in blocks[n].cells(j))

    def relations():
        for n in range(top + 1):
            for family, key, g in cset._elementary_maps_into(n, trunc):
                if family == "degens":
                    continue
                moved = getattr(C, family)[key]
                tables = sd._block_map(g.dom, n, g, k, trunc)
                for i in nondeg[n]:
                    m, z, s = normal[g.dom][moved[i]]
                    aliases = sd._block_map(g.dom, m, s, k, trunc)
                    for j in levels:
                        lhs, rhs = start[(j, m, z)], start[(j, n, i)]
                        for v, w in zip(aliases[j], tables[j]):
                            yield lhs + v, rhs + w

    def act(phi, xs):
        for n in range(top + 1):
            tbl = blocks[n].action(phi)
            for i in nondeg[n]:
                first = start[(phi.dom, n, i)]
                yield from (first + v for v in tbl)

    Q, index, classes = colimit(trunc, [u[0] for _, u in nodes], relations(), act)
    members = [[[nodes[x] for x in cls] for cls in level] for level in classes]
    carriers = []
    for level in members:
        carriers.append([])
        for cls in level:
            c0, *cells = sorted({c for c, _ in cls})
            a0 = cset.atom(C, c0)
            for c in cells:
                a = cset.atom(C, c)
                assert c[0] != c0[0] or a.sel == a0.sel, "ambiguous carrier"
                assert a0.issubset(a), "carrier not minimal"
            carriers[-1].append(c0)

    def class_of(c, u):
        (n, i), (j, ub) = c, u
        m, z, s = normal[n][i]
        if m < n:
            ub = sd._block_map(n, m, s, k, trunc)[j][ub]
        return (j, index[start[(j, m, z)] + ub])

    def descend(target):
        # the one target(c, u) that every member (c, u) of a cell agrees on
        maps = []
        for level in members:
            maps.append([])
            for cls in level:
                images = {target(c, u) for c, u in cls}
                assert len(images) == 1, "map not well defined"
                maps[-1].append(images.pop())
        return tuple(map(tuple, maps))

    def eps():
        return descend(lambda c, u: C.act(sd._collapse_component(c[0], *u, trunc), c[1]))

    def induced(f, cod_class_of):
        return descend(lambda c, u: cod_class_of(f(c), u)[1])

    return SimpleNamespace(cset=Q, carriers=carriers, class_of=class_of, eps=eps, induced=induced)


def _assert_listing_matches_gluing(C, k):
    """The listing and the gluing agree on every table, every carrier,
    `class_of(c, u)` over every cell c of C and every cell u of its block,
    and the collapse; the listed set validates.  Returns the listing."""
    s, ref = sd.subdivide(C, k), _glued_subdivision(C, k)
    assert s.cset.sizes == ref.cset.sizes
    for family in cset.FAMILIES:
        assert getattr(s.cset, family) == getattr(ref.cset, family), family
    assert [[s.carrier_cell((j, i)) for i in s.cset.cells(j)] for j in range(C.trunc + 1)] == ref.carriers
    for c in C.all_cells():
        for u in sd._block(c[0], k, C.trunc)[1].all_cells():
            assert s.class_of(c, u) == ref.class_of(c, u), (c, u)
    if k == 2:
        assert s.eps().maps == ref.eps()
    s.cset.validate()
    return s


PIN_SPACES = (
    "circle", "torus", "klein", "sphere2", "klein@3", "torus_by_quotient@3", "edge_boundary",
)
CATALOG = ("cube0", "cube1", "cube2", "circle", "torus", "klein", "sphere2")


def _space(name):
    space, _, trunc = name.partition("@")
    return spaces.by_name(space) if not trunc else getattr(spaces, space)(int(trunc))


@pytest.mark.parametrize("name", sorted(set(PIN_SPACES + CATALOG)))
def test_listing_matches_gluing_on_pinned_and_catalog_spaces(name):
    _assert_listing_matches_gluing(_space(name), 2)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("k", range(4))
def test_listing_matches_gluing_on_representables(n, k):
    _assert_listing_matches_gluing(cset.representable(n, 3), k)


def _symmetric(n):
    """The n-cube with its top cell identified with its transpose: a
    nondegenerate cell whose stabilizer is not trivial."""
    R = cset.representable(n, n)
    top = cset.rep_cell(R, cube.identity(n))
    return cset.quotient(R, [((n, top), (n, R.transps[(n, 1)][top]))])[0]


STABILIZED = {
    "symmetric square": lambda: _symmetric(2),
    "symmetric 3-cube": lambda: _symmetric(3),
    "nerve(Z/2, 2)": lambda: cat.nerve(cat.zmod(2), 2),
    "nerve(Z/3, 2)": lambda: cat.nerve(cat.zmod(3), 2),
}


@pytest.mark.parametrize("name", STABILIZED)
@pytest.mark.parametrize("k", [1, 2])
def test_listing_matches_gluing_where_stabilizers_are_not_trivial(name, k):
    C = STABILIZED[name]()
    assert any(
        C.transps[(n, i)][x] == x for n, i in C.transps for x in C.nondegenerate(n)
    ), "no nondegenerate cell is fixed by a transposition"
    _assert_listing_matches_gluing(C, k)


@pytest.mark.parametrize("name", ["circle", "klein", "torus"])
def test_listing_matches_gluing_on_sd9(name):
    # both collapses of sd9: the first on the base, the second on its sd3
    first = _assert_listing_matches_gluing(spaces.by_name(name), 2)
    _assert_listing_matches_gluing(first.cset, 2)


def _quotient_maps():
    """Projections of the square onto the torus and the klein bottle, and
    of klein onto klein with one edge collapsed to a degenerate edge."""
    R = cset.representable(2, 2)
    top = cset.rep_cell(R, cube.identity(2))
    face = lambda i, eps: (1, R.faces[(2, i, eps)][top])
    K = spaces.klein()
    e = K.nondegenerate(1)[0]
    return [
        cset.quotient(R, [(face(1, 0), face(1, 1)), (face(2, 0), face(2, 1))])[1],
        cset.quotient(R, [(face(1, 1), face(2, 0)), (face(1, 0), face(2, 1))])[1],
        cset.quotient(K, [((1, e), (1, K.degens[(0, 1)][K.faces[(1, 1, 0)][e]]))])[1],
    ]


@pytest.mark.parametrize("index", range(3))
def test_induced_listing_matches_gluing(index):
    f = _quotient_maps()[index]
    sd_dom, sd_cod = sd.sd3(f.dom), sd.sd3(f.cod)
    ref_dom, ref_cod = _glued_subdivision(f.dom, 2), _glued_subdivision(f.cod, 2)
    assert sd_dom.induced(f, sd_cod).maps == ref_dom.induced(f, ref_cod.class_of)


def test_listing_keys_name_carrier_and_block_cell():
    s = sd.sd3(spaces.klein(3))
    for j, level in enumerate(s.cset.keys):
        for i, (c, u) in enumerate(level):
            assert s.carrier_cell((j, i)) == c and s.class_of(c, (j, u)) == (j, i)


@pytest.mark.parametrize("k", [1.5, "2", True, None, 2.0])
def test_subdivision_parameter_must_be_an_int(k):
    with pytest.raises(sd.SdError, match="must be an int"):
        sd.subdivide(spaces.circle(), k)
