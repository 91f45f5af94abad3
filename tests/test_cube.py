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


def test_enumerate_bound():
    with pytest.raises(cube.CubeError):
        cube.enumerate_maps(5, 1)


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


def test_decompose_round_trips():
    for m in range(5):
        for n in range(5):
            for phi in cube.enumerate_maps(m, n):
                factors = cube.decompose(phi)
                assert isinstance(factors, tuple)
                rebuilt = cube.identity(m)
                for g in reversed(factors):
                    rebuilt = cube.compose(g, rebuilt)
                assert rebuilt == phi


def test_text_round_trip():
    phi = CubeMap(2, 3, (CONST0, proj(1), proj(2)))
    assert phi.text() == "2->3: [0, p1, p2]"
