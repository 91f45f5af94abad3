import hashlib
import itertools

import pytest

from dicube import cube
from dicube.config import Budget, BudgetExceeded
from dicube.cube import CONST0, CONST1, CubeMap, FunctionTable, proj


def test_eval_cofaces_and_projections():
    lower = cube.coface(0, 1, 1)
    upper = cube.coface(1, 1, 1)
    assert lower(()) == (0,)
    assert upper(()) == (1,)
    sigma = cube.codegeneracy(1, 1)
    assert sigma((1,)) == ()
    tau = cube.transposition(1, 2)
    assert tau((1, 0)) == (0, 1)


def test_eval_arity_mismatch():
    with pytest.raises(cube.CubeError):
        cube.identity(2)((0,))


def test_points_of_a_negative_dimension_raise_cube_error():
    with pytest.raises(cube.CubeError, match="nonnegative, got -1"):
        cube.points(-1)


def test_no_diagonals():
    with pytest.raises(cube.CubeError):
        CubeMap(1, 2, (proj(1), proj(1)))


def test_compose_retraction_and_section():
    sigma = cube.codegeneracy(1, 1)
    lower = cube.coface(0, 1, 1)
    assert cube.compose(sigma, lower) == cube.identity(0)
    # the other composite is the constant endomap
    assert cube.compose(lower, sigma) == CubeMap(1, 1, (CONST0,))


def test_tensor_builds_padded_cofaces():
    lower = cube.coface(0, 1, 1)
    padded = cube.tensor(lower, cube.identity(1))
    assert padded == CubeMap(1, 2, (CONST0, proj(1)))
    assert padded == cube.coface(0, 1, 2)


def test_compose_matches_evaluation():
    for m, n, p in itertools.product(range(3), repeat=3):
        for f in cube.enumerate_maps(m, n):
            for g in cube.enumerate_maps(n, p):
                h = cube.compose(g, f)
                for x in cube.points(m):
                    assert h(x) == g(f(x))


def test_compose_associative_and_unital():
    maps = {
        (m, n): cube.enumerate_maps(m, n) for m in range(3) for n in range(3)
    }
    for (m, n), fs in maps.items():
        for f in fs:
            assert cube.compose(f, cube.identity(m)) == f
            assert cube.compose(cube.identity(n), f) == f
    for a, b, c, d in itertools.product(range(3), repeat=4):
        for f in maps[(a, b)]:
            for g in maps[(b, c)]:
                for h in maps[(c, d)]:
                    assert cube.compose(h, cube.compose(g, f)) == cube.compose(
                        cube.compose(h, g), f
                    )


def test_classify_examples():
    assert cube.classify(cube.transposition(1, 2)) == "iso"
    assert cube.classify(cube.codegeneracy(2, 3)) == "epi"
    assert cube.classify(CubeMap(1, 2, (CONST1, proj(1)))) == "mono"
    assert cube.classify(CubeMap(2, 1, (CONST0,))) == "neither"


def test_classify_agrees_with_table_surjectivity_injectivity():
    for m in range(5):
        for n in range(5):
            if max(m, n) > 4 or (m > 3 and n > 3):
                continue
            for phi in cube.enumerate_maps(m, n):
                values = [phi(x) for x in cube.points(m)]
                surj = len(set(values)) == 2**n
                inj = len(set(values)) == 2**m
                cls = cube.classify(phi)
                assert (cls in ("epi", "iso")) == surj, phi.text()
                assert (cls in ("mono", "iso")) == inj, phi.text()
                assert (cls == "iso") == (surj and inj), phi.text()


def test_vertex_table_matches_evaluation():
    for m in range(4):
        for n in range(4):
            for phi in cube.enumerate_maps(m, n):
                expected = tuple(cube.point_index(phi(p)) for p in cube.points(m))
                assert phi.vertices == expected, phi.text()


def test_enumerate_counts():
    assert len(cube.enumerate_maps(1, 1)) == 3
    assert len(cube.enumerate_maps(2, 1)) == 4
    assert len(cube.enumerate_maps(1, 2)) == 8
    assert len(cube.enumerate_maps(2, 2)) == 14
    for n in range(4):
        assert len(cube.enumerate_maps(n, 0)) == 1
        assert len(cube.enumerate_maps(0, n)) == 2**n


def test_enumerate_order_deterministic():
    maps = cube.enumerate_maps(2, 1)
    assert [phi.outputs for phi in maps] == [
        (CONST0,),
        (CONST1,),
        (proj(1),),
        (proj(2),),
    ]


def test_enumerate_charges_the_tuples_up_front():
    # no cap on the dimensions: (5, 1) lists 0, 1 and the five projections
    assert [phi.text() for phi in cube.enumerate_maps(5, 1)] == [
        f"5->1: [{spec}]" for spec in ("0", "1", "p1", "p2", "p3", "p4", "p5")
    ]
    # (4, 4) is charged its hom-set, 648 maps, before listing
    with pytest.raises(BudgetExceeded, match=r"\(648 > 647\)"):
        cube.enumerate_maps(4, 4, budget=647)
    budget = Budget(648)
    assert len(cube.enumerate_maps(4, 4, budget=budget)) == 648
    assert budget.used == 648
    # n = 0 has one map, charged 1 and listed without m's projections
    budget = Budget(1)
    assert len(cube.enumerate_maps(10**8, 0, budget=budget)) == 1 and budget.used == 1


def test_enumerate_charges_the_hom_set_size():
    """The charge is sum_k C(n, k) P(m, k) 2^(n - k), the number of maps
    listed, up to dimension 5 each way and at (7, 7); a sum past the limit
    stops there, as the doubling of 2^n stops past it."""
    for m in range(6):
        for n in range(6):
            budget = Budget(10**9)
            assert len(cube.enumerate_maps(m, n, budget=budget)) == budget.used, (m, n)
    with pytest.raises(BudgetExceeded, match=r"\(671568 > 671567\)"):
        cube.enumerate_maps(7, 7, budget=671567)
    with pytest.raises(BudgetExceeded, match=r"\(1048576 > 1000000\)"):
        cube.enumerate_maps(0, 10**8, budget=10**6)


def test_enumerate_takes_a_float_budget():
    """A limit that is not an int caps the sum and its powers of 2 alike."""
    budget = Budget(648.0)
    assert len(cube.enumerate_maps(4, 4, budget=budget)) == 648 == budget.used
    with pytest.raises(BudgetExceeded, match=r"\(1048576 > 1000000\.0\)"):
        cube.enumerate_maps(0, 10**8, budget=1e6)


def test_enumerate_rejects_an_unknown_class():
    with pytest.raises(cube.CubeError, match="'bad'"):
        cube.enumerate_maps(1, 1, cls="bad")
    counts = {cls: len(cube.enumerate_maps(2, 2, cls)) for cls in ("iso", "epi", "mono", "neither")}
    assert counts == {"iso": 2, "epi": 0, "mono": 0, "neither": 12}
    assert sum(counts.values()) == len(cube.enumerate_maps(2, 2, None))


def test_from_function_rejects_diagonal():
    diag = FunctionTable(1, 2, ((0, 0), (1, 1)))
    phi, witness = cube.from_function(diag)
    assert phi is None
    assert witness[0] == "interval"


def test_from_function_rejects_meet():
    meet = FunctionTable(2, 1, ((0,), (0,), (0,), (1,)))
    phi, witness = cube.from_function(meet)
    assert phi is None
    assert witness[0] == "join"
    assert set(witness[1:]) == {(0, 1), (1, 0)}


def test_from_function_round_trip():
    for m in range(5):
        for n in range(5):
            for phi in cube.enumerate_maps(m, n):
                back, witness = cube.from_function(phi.table())
                assert witness is None
                assert back == phi


def test_from_function_charges_the_pairs_of_points_up_front():
    budget = Budget(16)
    assert cube.from_function(cube.identity(2).table(), budget) == (cube.identity(2), None)
    assert budget.used == 16
    # the charge comes before the checks, a non-monotone table included
    for values in (cube.identity(2).table().values, ((1,), (0,), (1,), (1,))):
        with pytest.raises(BudgetExceeded, match=r"\(16 > 15\)"):
            cube.from_function(FunctionTable(2, len(values[0]), values), 15)


def test_from_function_names_a_homomorphism_with_no_read_off_as_internal(monkeypatch):
    """A table that passes every check but is refused by `from_vertices`
    is an internal error, never a silent None."""
    monkeypatch.setattr(cube, "from_vertices", lambda dom, cod, vertices: None)
    with pytest.raises(cube.CubeError, match="internal: homomorphic table with no read-off"):
        cube.from_function(cube.identity(2).table())


def test_from_vertices_inverts_the_vertex_table():
    for m in range(5):
        for n in range(5):
            for phi in cube.enumerate_maps(m, n):
                assert cube.from_vertices(m, n, phi.vertices) == phi


# Every table [1]^m -> [1]^n for these (m, n), in `points` order.
PINNED_SHAPES = ((0, 2), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
# sha256 of the outcome of `from_function` on each pinned table, one line
# each: the map's text, the witness, or the error message.
FROM_FUNCTION_DIGEST = "3633e0767b7f7481f1d22c07f6064b7c168fb02937a62723375533d5ae5bd2c3"


def _pinned_tables():
    for m, n in PINNED_SHAPES:
        for values in itertools.product(cube.points(n), repeat=2**m):
            yield FunctionTable(m, n, values)


def _from_function_outcome(table):
    try:
        phi, witness = cube.from_function(table)
    except cube.CubeError as exc:
        return str(exc)
    return phi.text() if phi is not None else repr(witness)


def test_from_function_outcomes_are_pinned():
    lines = "\n".join(_from_function_outcome(table) for table in _pinned_tables())
    assert hashlib.sha256(lines.encode()).hexdigest() == FROM_FUNCTION_DIGEST


def test_from_vertices_accepts_exactly_the_cube_maps():
    accepted = 0
    for table in _pinned_tables():
        vertices = tuple(cube.point_index(w) for w in table.values)
        try:
            phi, _ = cube.from_function(table)
        except cube.CubeError:
            phi = None
        assert cube.from_vertices(table.dom, table.cod, vertices) == phi
        accepted += phi is not None
    assert accepted == sum(len(cube.enumerate_maps(m, n)) for m, n in PINNED_SHAPES)


def _from_function_by_passes(table, budget=None):
    """The pass-based decision that `cube.from_function` replaced: joins and
    meets over every pair of points, then the image of every interval,
    about 6^dom steps.  Kept as a reference for outcomes and witnesses."""
    Budget.of(budget).spend(len(table.values) ** 2)
    pts = cube.points(table.dom)
    v = [cube.point_index(w) for w in table.values]
    r = range(len(v))
    if any(v[x] & v[y] != v[x] for x in r for y in r if x & y == x):
        raise cube.CubeError("table is not monotone")
    for x in r:
        for y in r:
            if v[x | y] != v[x] | v[y]:
                return None, ("join", pts[x], pts[y])
            if v[x & y] != v[x] & v[y]:
                return None, ("meet", pts[x], pts[y])
    # Interval preservation: the image of [x, y] must be all of
    # [f(x), f(y)], order-convexity included.
    for x in r:
        for y in r:
            if x & y != x:
                continue
            image = {v[z] for z in r if x & z == x and z & y == z}
            if image != {w for w in range(1 << table.cod) if v[x] & w == v[x] and w & v[y] == w}:
                return None, ("interval", pts[x], pts[y])
    phi = cube.from_vertices(table.dom, table.cod, v)
    if phi is None:
        raise cube.CubeError("internal: homomorphic table without normal form")
    return phi, None


def _outcome(decide, table):
    try:
        return decide(table)
    except cube.CubeError as exc:
        return str(exc)


def _monotone_tables(m, n):
    """Every monotone table [1]^m -> [1]^n: n monotone Boolean functions of
    m bits, one per output coordinate."""
    columns = [
        bits
        for bits in itertools.product((0, 1), repeat=2**m)
        if all(bits[x] <= bits[y] for x in range(2**m) for y in range(2**m) if x & y == x)
    ]
    return [FunctionTable(m, n, tuple(zip(*cols))) for cols in itertools.product(columns, repeat=n)]


def test_from_function_agrees_with_the_pass_based_reference():
    """Outcome and witness agree on every table with dom, cod <= 2, on the
    20^3 = 8,000 monotone tables [1]^3 -> [1]^3, and on the 6^4 = 1,296
    monotone tables [1]^2 -> [1]^4, where two atoms can each go past a
    cover of f(0) (the doubled diagonal) and the first one is named."""
    tables = [
        FunctionTable(m, n, values)
        for m in range(3)
        for n in range(3)
        for values in itertools.product(cube.points(n), repeat=2**m)
    ]
    tables += _monotone_tables(3, 3) + _monotone_tables(2, 4)
    assert len(tables) == 301 + 8_000 + 1_296
    kinds = set()
    for table in tables:
        outcome = _outcome(cube.from_function, table)
        assert outcome == _outcome(_from_function_by_passes, table), table
        kinds.add(outcome if isinstance(outcome, str) else (outcome[1] or ("map",))[0])
    # every kind of verdict is met
    assert kinds == {"map", "join", "meet", "interval", "table is not monotone"}
    doubled = FunctionTable(2, 4, tuple((a, a, b, b) for a, b in cube.points(2)))
    assert cube.from_function(doubled) == (None, ("interval", (0, 0), (0, 1)))


def test_from_vertices_rejects_malformed_tables():
    assert cube.from_vertices(1, 2, (0, 3)) is None  # the diagonal
    assert cube.from_vertices(1, 1, (0, 1, 1)) is None  # wrong length
    assert cube.from_vertices(1, 1, (0, 2)) is None  # value out of range
    assert cube.from_vertices(0, 0, ()) is None


def test_parallel_epis_differ_by_permutations():
    for m in range(5):
        for n in range(m + 1):
            epis = [
                phi
                for phi in cube.enumerate_maps(m, n)
                if cube.classify(phi) in ("epi", "iso")
            ]
            perms_out = [
                p for p in cube.enumerate_maps(n, n) if cube.classify(p) == "iso"
            ]
            perms_in = [
                p for p in cube.enumerate_maps(m, m) if cube.classify(p) == "iso"
            ]
            for e1 in epis:
                for e2 in epis:
                    assert any(
                        cube.compose(p, cube.compose(e1, q)) == e2
                        for p in perms_out
                        for q in perms_in
                    ), (e1.text(), e2.text())


def test_peel_round_trips():
    """Peeling every map up to dimension 5 reaches an identity within
    max(dom, cod): one coface per constant output, one transposition per
    inversion of the projections and one codegeneracy per unused input, in
    that order, as many factors as the bubble-sort factorization that
    `peel` replaced; the factors recompose to the map."""
    order = {"faces": 0, "transps": 1, "degens": 2}
    count = 0
    for m in range(6):
        for n in range(6):
            for phi in cube.enumerate_maps(m, n):
                outer, inner, kinds, cur = [], [], [], phi
                while (step := cube.peel(cur)) is not None:
                    g, cur, is_outer = step
                    assert max(g.dom, g.cod, cur.dom, cur.cod) <= max(m, n)
                    assert is_outer == (g.dom <= g.cod)  # only codegeneracies go inside
                    (outer if is_outer else inner).append(g)
                    kinds.append("faces" if g.dom < g.cod else "degens" if g.dom > g.cod else "transps")
                projs = [spec[1] for spec in phi.outputs if cube.is_proj(spec)]
                inversions = sum(a > b for a, b in itertools.combinations(projs, 2))
                assert cur.is_identity() and cur.dom == len(projs)
                assert kinds == sorted(kinds, key=order.__getitem__), phi.text()
                assert [kinds.count(k) for k in order] == [n - len(projs), inversions, m - len(projs)]
                rebuilt = cur
                for g in reversed(outer):
                    rebuilt = cube.compose(g, rebuilt)
                for g in reversed(inner):
                    rebuilt = cube.compose(rebuilt, g)
                assert rebuilt == phi
                count += 1
    assert count == 12_867
    assert cube.peel(cube.identity(3)) is None


def test_text_round_trip():
    phi = CubeMap(2, 3, (CONST0, proj(1), proj(2)))
    assert phi.text() == "2->3: [0, p1, p2]"
