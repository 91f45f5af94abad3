"""The symmetric monoidal cube category.

Objects are the Boolean lattices [1]^n, morphisms are generated by the
cofaces, the codegeneracies and the coordinate permutations.  Every
morphism has a unique normal form: a vector of output specs, one per
output coordinate, where each spec is a constant 0, a constant 1, or a
projection onto an input coordinate, with all projections distinct.
("Distinct" is what rules diagonals out.)  Equivalently the morphisms are
exactly the interval-preserving lattice homomorphisms between Boolean
lattices.

Such a map is fixed by where it sends the vertices of [1]^dom, and
`CubeMap.vertices` is that vertex table: the `points(cod)` index of the
image of each vertex, in `points(dom)` order.  It is the one way a cube
map moves vertex indices; the presheaf builders act on cells through it.
`from_vertices` is its inverse.  On vertex indices join, meet and order
are `|`, `&` and bit inclusion, and `from_function` decides the
characterization above on raw tables that way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .config import Budget

CONST0 = ("c", 0)
CONST1 = ("c", 1)


def proj(i):
    """Projection onto input coordinate i (1-based)."""
    return ("p", i)


def is_const(spec):
    return spec[0] == "c"


def is_proj(spec):
    return spec[0] == "p"


class CubeError(ValueError):
    pass


@lru_cache(maxsize=None)
def points(m):
    """All vertices of [1]^m in lexicographic order."""
    if m < 0:
        raise CubeError(f"dimension must be nonnegative, got {m}")
    return tuple(itertools.product((0, 1), repeat=m))


def point_index(p):
    idx = 0
    for bit in p:
        idx = 2 * idx + bit
    return idx


@dataclass(frozen=True, order=True)
class CubeMap:
    """Normal form of a cube-category morphism [1]^dom -> [1]^cod."""

    dom: int
    cod: int
    outputs: tuple

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0 or len(self.outputs) != self.cod:
            raise CubeError("malformed cube map")
        used = set()
        for spec in self.outputs:
            if is_const(spec):
                if spec[1] not in (0, 1):
                    raise CubeError(f"bad constant {spec}")
            elif is_proj(spec):
                i = spec[1]
                if not 1 <= i <= self.dom:
                    raise CubeError(f"projection index {i} out of range")
                if i in used:
                    raise CubeError(f"repeated projection {i} (no diagonals)")
                used.add(i)
            else:
                raise CubeError(f"bad output spec {spec}")

    def __call__(self, x):
        if len(x) != self.dom:
            raise CubeError(f"expected {self.dom} coordinates, got {len(x)}")
        return tuple(
            spec[1] if is_const(spec) else x[spec[1] - 1] for spec in self.outputs
        )

    @cached_property
    def vertices(self):
        """The vertex table: the `points(cod)` index of phi(v) for each v
        in `points(dom)`."""
        return tuple(point_index(self(p)) for p in points(self.dom))

    def used_inputs(self):
        return {spec[1] for spec in self.outputs if is_proj(spec)}

    def is_identity(self):
        return self.dom == self.cod and self.outputs == tuple(
            proj(i) for i in range(1, self.dom + 1)
        )

    def table(self):
        return FunctionTable(
            self.dom, self.cod, tuple(self(x) for x in points(self.dom))
        )

    def text(self):
        parts = []
        for spec in self.outputs:
            parts.append(str(spec[1]) if is_const(spec) else f"p{spec[1]}")
        return f"{self.dom}->{self.cod}: [{', '.join(parts)}]"


def identity(n):
    return CubeMap(n, n, tuple(proj(i) for i in range(1, n + 1)))


def compose(g, f):
    """The composite g o f for f: m -> n, g: n -> p."""
    if f.cod != g.dom:
        raise CubeError(f"cannot compose {g.text()} after {f.text()}")
    outputs = []
    for spec in g.outputs:
        if is_const(spec):
            outputs.append(spec)
        else:
            outputs.append(f.outputs[spec[1] - 1])
    return CubeMap(f.dom, g.cod, tuple(outputs))


def tensor(f, g):
    """Monoidal product: acts as f on the first block, g on the second."""
    shifted = tuple(
        spec if is_const(spec) else proj(spec[1] + f.dom) for spec in g.outputs
    )
    return CubeMap(f.dom + g.dom, f.cod + g.cod, f.outputs + shifted)


def coface(sign, i, n):
    """delta_{sign,i}: [1]^(n-1) -> [1]^n inserting the constant at slot i."""
    if not 1 <= i <= n:
        raise CubeError("coface index out of range")
    outputs = [proj(j) for j in range(1, n)]
    outputs.insert(i - 1, ("c", sign))
    return CubeMap(n - 1, n, tuple(outputs))


def codegeneracy(i, n):
    """sigma_i: [1]^n -> [1]^(n-1) dropping input coordinate i."""
    if not 1 <= i <= n:
        raise CubeError("codegeneracy index out of range")
    outputs = [proj(j) for j in range(1, n + 1) if j != i]
    return CubeMap(n, n - 1, tuple(outputs))


def transposition(i, n):
    """tau_i: [1]^n -> [1]^n swapping coordinates i and i+1."""
    if not 1 <= i <= n - 1:
        raise CubeError("transposition index out of range")
    outputs = list(proj(j) for j in range(1, n + 1))
    outputs[i - 1], outputs[i] = outputs[i], outputs[i - 1]
    return CubeMap(n, n, tuple(outputs))


def classify(phi):
    """One of 'iso', 'epi', 'mono', 'neither'.

    iso: a coordinate permutation; epi: no constants (surjective); mono:
    every input projected (injective).  Agreement with surjectivity and
    injectivity of the evaluation table is asserted by the test suite.
    """
    no_consts = all(is_proj(spec) for spec in phi.outputs)
    all_used = len(phi.used_inputs()) == phi.dom
    if no_consts and all_used and phi.dom == phi.cod:
        return "iso"
    if no_consts:
        return "epi"
    if all_used:
        return "mono"
    return "neither"


ENUMERATION_BOUND = 4


def enumerate_maps(m, n, cls=None):
    """All normal forms [1]^m -> [1]^n in lexicographic output order."""
    if m < 0 or n < 0:
        raise CubeError(f"dimensions must be nonnegative, got {m} and {n}")
    if m > ENUMERATION_BOUND or n > ENUMERATION_BOUND:
        raise CubeError(f"enumeration bound {ENUMERATION_BOUND} exceeded")
    if cls not in (None, "iso", "epi", "mono", "neither"):
        raise CubeError(f"unknown map class {cls!r}")
    specs = [CONST0, CONST1] + [proj(i) for i in range(1, m + 1)]
    out = []

    def rec(prefix, used):
        if len(prefix) == n:
            out.append(CubeMap(m, n, tuple(prefix)))
            return
        for spec in specs:
            if is_proj(spec) and spec[1] in used:
                continue
            prefix.append(spec)
            if is_proj(spec):
                used.add(spec[1])
            rec(prefix, used)
            if is_proj(spec):
                used.discard(spec[1])
            prefix.pop()

    rec([], set())
    return [phi for phi in out if cls is None or classify(phi) == cls]


@lru_cache(maxsize=None)
def decompose(phi):
    """Elementary factors g1..gr with phi == g1 o g2 o ... o gr, as a tuple.

    Factors are cofaces, codegeneracies and principal transpositions; all
    intermediate dimensions stay within max(dom, cod).  Memoized per map:
    the recomposition check runs on the first call for each map.
    """
    factors = []
    cur = phi
    # Peel cofaces off the outside, one constant output at a time.
    while any(is_const(spec) for spec in cur.outputs):
        j = next(k for k, spec in enumerate(cur.outputs) if is_const(spec))
        sign = cur.outputs[j][1]
        factors.append(coface(sign, j + 1, cur.cod))
        cur = CubeMap(cur.dom, cur.cod - 1, cur.outputs[:j] + cur.outputs[j + 1 :])
    # Peel the permutation part: bubble-sort the projection indices.
    perm_factors = []
    outputs = list(cur.outputs)
    changed = True
    while changed:
        changed = False
        for j in range(len(outputs) - 1):
            if outputs[j][1] > outputs[j + 1][1]:
                perm_factors.append(transposition(j + 1, cur.cod))
                outputs[j], outputs[j + 1] = outputs[j + 1], outputs[j]
                changed = True
    factors.extend(perm_factors)
    cur = CubeMap(cur.dom, cur.cod, tuple(outputs))
    # Peel codegeneracies for the unused inputs, innermost last.
    degen_factors = []
    while cur.dom > cur.cod:
        used = cur.used_inputs()
        i = next(k for k in range(1, cur.dom + 1) if k not in used)
        degen_factors.append(codegeneracy(i, cur.dom))
        outputs = tuple(
            spec if spec[1] < i else proj(spec[1] - 1) for spec in cur.outputs
        )
        cur = CubeMap(cur.dom - 1, cur.cod, outputs)
    factors.extend(reversed(degen_factors))
    if not cur.is_identity():
        raise CubeError(f"decomposition failed for {phi.text()}")
    check = identity(phi.dom)
    for g in reversed(factors):
        check = compose(g, check)
    if check != phi:
        raise CubeError(f"decomposition does not recompose for {phi.text()}")
    return tuple(factors)


@dataclass(frozen=True)
class FunctionTable:
    """A raw function [1]^dom -> [1]^cod, values indexed by `points(dom)`."""

    dom: int
    cod: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != 2**self.dom:
            raise CubeError("table has wrong length")
        for v in self.values:
            if len(v) != self.cod or any(b not in (0, 1) for b in v):
                raise CubeError("table value out of range")


def from_vertices(dom, cod, vertices):
    """The cube map [1]^dom -> [1]^cod with this vertex table, or None.

    The inverse of `CubeMap.vertices`: each output coordinate is read off
    as a constant column or one input bit, and the map is returned only
    if its own vertex table reproduces `vertices`.
    """
    inputs = {column: proj(i) for i, column in enumerate(zip(*points(dom)), 1)}
    outputs = []
    for j in range(cod):
        column = tuple(w >> (cod - 1 - j) & 1 for w in vertices)
        # an input bit is popped once read, so no diagonal gets through
        spec = ("c", column[0]) if len(set(column)) == 1 else inputs.pop(column, None)
        if spec is None:
            return None
        outputs.append(spec)
    phi = CubeMap(dom, cod, tuple(outputs))
    return phi if phi.vertices == tuple(vertices) else None


def from_function(table, budget=None):
    """Decide whether a monotone table is a cube-category morphism.

    Returns (cube_map, None) when the table is an interval-preserving
    lattice homomorphism, in which case the map's evaluation reproduces
    the table exactly; otherwise (None, witness), where the witness names
    a violated join, meet or interval image by its `points` tuples.  The
    decision runs on vertex indices, where join, meet and order are `|`,
    `&` and bit inclusion.  Each check walks the pairs (x, y) of points of
    [1]^dom, so the budget is charged their number, 4^dom, up front.
    """
    Budget.of(budget).spend(len(table.values) ** 2)
    pts = points(table.dom)
    v = [point_index(w) for w in table.values]
    r = range(len(v))
    if any(v[x] & v[y] != v[x] for x in r for y in r if x & y == x):
        raise CubeError("table is not monotone")
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
    phi = from_vertices(table.dom, table.cod, v)
    if phi is None:
        raise CubeError("internal: homomorphic table without normal form")
    return phi, None
